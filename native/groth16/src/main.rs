//! Groth16 prover/verifier over BN254 for externally supplied R1CS files.
//!
//! Subcommands:
//!   setup  --r1cs F --pk OUT --vk OUT [--seed N]
//!   prove  --r1cs F --pk F --witness F --proof OUT
//!   verify --vk F --publics F --proof F
//!
//! Exit codes: 0 accept/success, 1 reject, 2 usage or input error.

use std::collections::HashMap;
use std::fs;
use std::process::exit;

use ark_bn254::{Bn254, Fr};
use ark_ff::PrimeField;
use ark_groth16::Groth16;
use ark_relations::r1cs::{
    ConstraintSynthesizer, ConstraintSystemRef, LinearCombination, SynthesisError, Variable,
};
use ark_serialize::{CanonicalDeserialize, CanonicalSerialize};
use ark_snark::SNARK;
use ark_std::rand::{rngs::StdRng, SeedableRng};

const BN254_SCALAR_HEX: &str = "30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001";

type Terms<F> = Vec<(usize, F)>;

struct R1csFile<F> {
    n_wires: usize,
    n_public: usize,
    rows: Vec<(Terms<F>, Terms<F>, Terms<F>)>,
}

fn fr_from_hex(s: &str) -> Result<Fr, String> {
    let s = if s.len() % 2 == 1 { format!("0{s}") } else { s.to_string() };
    let bytes = hex::decode(&s).map_err(|e| format!("bad hex: {e}"))?;
    Ok(Fr::from_be_bytes_mod_order(&bytes))
}

const R1CS_MAGIC: &[u8] = b"unlearn-r1cs v2\n";

/// Cursor over an r1cs file; every integer in it is little-endian.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.data.len() - self.pos {
            return Err("truncated r1cs file".into());
        }
        self.pos += n;
        Ok(&self.data[self.pos - n..self.pos])
    }

    fn u32s(&mut self, n: usize) -> Result<Vec<usize>, String> {
        let bytes = self.take(n.checked_mul(4).ok_or("r1cs count overflows")?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
            .collect())
    }

    fn u32(&mut self) -> Result<usize, String> {
        Ok(self.u32s(1)?[0])
    }
}

/// Reads the binary layout written by `ConstraintSystem.export` in
/// `src/unlearn/r1cs.py`: the magic, the modulus (a u32 width k, then k
/// bytes), the wire, public, row and coefficient counts, the coefficient
/// table (k bytes each), then for A, B and C the term count of each row,
/// the wire ids and the coefficient ids.  `modulus_le` is the expected
/// modulus; `field` turns a table entry into a field element.
fn parse_r1cs_bytes<F: Copy>(
    data: &[u8],
    modulus_le: &[u8],
    field: impl Fn(&[u8]) -> F,
) -> Result<R1csFile<F>, String> {
    let mut r = Reader { data, pos: 0 };
    if r.take(R1CS_MAGIC.len())? != R1CS_MAGIC {
        return Err("not an unlearn-r1cs v2 file".into());
    }
    let k = r.u32()?;
    if r.take(k)? != modulus_le {
        return Err("r1cs modulus is not the BN254 scalar field".into());
    }
    let (n_wires, n_public, n_rows, n_coeffs) = (r.u32()?, r.u32()?, r.u32()?, r.u32()?);
    if n_public >= n_wires {
        return Err(format!("{n_public} public wires out of {n_wires}"));
    }
    let table: Vec<F> = r
        .take(n_coeffs.checked_mul(k).ok_or("r1cs table overflows")?)?
        .chunks_exact(k)
        .map(&field)
        .collect();
    let mut matrices = Vec::with_capacity(3);
    for name in ["A", "B", "C"] {
        let counts = r.u32s(n_rows)?;
        let n_terms = counts.iter().sum();
        let wires = r.u32s(n_terms)?;
        let coeffs = r.u32s(n_terms)?;
        let mut terms = wires.into_iter().zip(coeffs);
        let mut rows = Vec::with_capacity(n_rows);
        for count in counts {
            let row: Terms<F> = terms
                .by_ref()
                .take(count)
                .map(|(w, c)| match table.get(c) {
                    Some(v) if w < n_wires => Ok((w, *v)),
                    _ => Err(format!("matrix {name}: wire or coefficient id out of range")),
                })
                .collect::<Result<_, _>>()?;
            rows.push(row);
        }
        matrices.push(rows);
    }
    if r.pos != data.len() {
        return Err("r1cs file has trailing bytes".into());
    }
    let c = matrices.pop().unwrap_or_default();
    let b = matrices.pop().unwrap_or_default();
    let a = matrices.pop().unwrap_or_default();
    let rows = a.into_iter().zip(b).zip(c).map(|((a, b), c)| (a, b, c)).collect();
    Ok(R1csFile { n_wires, n_public, rows })
}

fn parse_r1cs(path: &str) -> Result<R1csFile<Fr>, String> {
    let data = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let mut modulus = hex::decode(BN254_SCALAR_HEX).map_err(|e| e.to_string())?;
    modulus.reverse();
    parse_r1cs_bytes(&data, &modulus, Fr::from_le_bytes_mod_order)
}

fn parse_values(path: &str, expect_header: &str) -> Result<Vec<Fr>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut lines = text.lines();
    let magic = lines.next().ok_or("empty values file")?;
    if magic != expect_header {
        return Err(format!("unsupported header {magic:?}"));
    }
    let count_line = lines.next().ok_or("missing count")?;
    let (_, n) = count_line.split_once(' ').ok_or("bad count line")?;
    let n: usize = n.parse().map_err(|e| format!("bad count: {e}"))?;
    let vals: Result<Vec<Fr>, String> = lines.take(n).map(fr_from_hex).collect();
    let vals = vals?;
    if vals.len() != n {
        return Err("truncated values file".into());
    }
    Ok(vals)
}

struct FileCircuit {
    file: R1csFile<Fr>,
    // Full assignment including the leading constant 1; absent for setup.
    assignment: Option<Vec<Fr>>,
}

impl ConstraintSynthesizer<Fr> for FileCircuit {
    fn generate_constraints(self, cs: ConstraintSystemRef<Fr>) -> Result<(), SynthesisError> {
        let value = |i: usize| -> Result<Fr, SynthesisError> {
            self.assignment
                .as_ref()
                .map(|a| a.get(i).copied().ok_or(SynthesisError::AssignmentMissing))
                .unwrap_or(Err(SynthesisError::AssignmentMissing))
        };
        let mut vars = Vec::with_capacity(self.file.n_wires);
        vars.push(Variable::One);
        for i in 1..=self.file.n_public {
            vars.push(cs.new_input_variable(|| value(i))?);
        }
        for i in (self.file.n_public + 1)..self.file.n_wires {
            vars.push(cs.new_witness_variable(|| value(i))?);
        }
        let as_lc = |terms: &Terms<Fr>| -> LinearCombination<Fr> {
            let mut lc = LinearCombination::zero();
            for (w, c) in terms {
                lc += (*c, vars[*w]);
            }
            lc
        };
        for (a, b, c) in &self.file.rows {
            cs.enforce_constraint(as_lc(a), as_lc(b), as_lc(c))?;
        }
        Ok(())
    }
}

fn parse_args(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i + 1 < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            out.insert(key.to_string(), args[i + 1].clone());
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

fn required<'a>(opts: &'a HashMap<String, String>, key: &str) -> Result<&'a String, String> {
    opts.get(key).ok_or(format!("missing --{key}"))
}

fn make_rng(opts: &HashMap<String, String>) -> Result<StdRng, String> {
    match opts.get("seed") {
        Some(s) => Ok(StdRng::seed_from_u64(
            s.parse().map_err(|e| format!("bad seed: {e}"))?,
        )),
        None => {
            use std::io::Read;
            let mut seed = [0u8; 32];
            fs::File::open("/dev/urandom")
                .and_then(|mut f| f.read_exact(&mut seed))
                .map_err(|e| format!("cannot read system entropy: {e}"))?;
            Ok(StdRng::from_seed(seed))
        }
    }
}

fn run() -> Result<i32, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().ok_or("usage: unlearn-groth16 <setup|prove|verify>")?;
    let opts = parse_args(&args[1..]);
    match cmd.as_str() {
        "setup" => {
            let file = parse_r1cs(required(&opts, "r1cs")?)?;
            let mut rng = make_rng(&opts)?;
            let circuit = FileCircuit { file, assignment: None };
            let (pk, vk) = Groth16::<Bn254>::circuit_specific_setup(circuit, &mut rng)
                .map_err(|e| format!("setup failed: {e}"))?;
            let mut buf = Vec::new();
            pk.serialize_compressed(&mut buf).map_err(|e| e.to_string())?;
            fs::write(required(&opts, "pk")?, &buf).map_err(|e| e.to_string())?;
            buf.clear();
            vk.serialize_compressed(&mut buf).map_err(|e| e.to_string())?;
            fs::write(required(&opts, "vk")?, &buf).map_err(|e| e.to_string())?;
            Ok(0)
        }
        "prove" => {
            let file = parse_r1cs(required(&opts, "r1cs")?)?;
            let assignment = parse_values(required(&opts, "witness")?, "unlearn-wit v1")?;
            if assignment.len() != file.n_wires {
                return Err("witness length does not match circuit".into());
            }
            let pk_bytes = fs::read(required(&opts, "pk")?).map_err(|e| e.to_string())?;
            let pk = ark_groth16::ProvingKey::<Bn254>::deserialize_compressed_unchecked(
                &pk_bytes[..],
            )
            .map_err(|e| format!("bad proving key: {e}"))?;
            let mut rng = make_rng(&opts)?;
            let circuit = FileCircuit { file, assignment: Some(assignment) };
            let proof = Groth16::<Bn254>::prove(&pk, circuit, &mut rng)
                .map_err(|e| format!("prove failed: {e}"))?;
            let mut buf = Vec::new();
            proof.serialize_compressed(&mut buf).map_err(|e| e.to_string())?;
            fs::write(required(&opts, "proof")?, &buf).map_err(|e| e.to_string())?;
            Ok(0)
        }
        "verify" => {
            let vk_bytes = fs::read(required(&opts, "vk")?).map_err(|e| e.to_string())?;
            let vk = ark_groth16::VerifyingKey::<Bn254>::deserialize_compressed(&vk_bytes[..])
                .map_err(|e| format!("bad verifying key: {e}"))?;
            let publics = parse_values(required(&opts, "publics")?, "unlearn-pub v1")?;
            let proof_bytes = fs::read(required(&opts, "proof")?).map_err(|e| e.to_string())?;
            let accepted = match ark_groth16::Proof::<Bn254>::deserialize_compressed(
                &proof_bytes[..],
            ) {
                Ok(proof) => Groth16::<Bn254>::verify(&vk, &publics, &proof).unwrap_or(false),
                Err(_) => false,
            };
            println!("{}", if accepted { "OK" } else { "FAIL" });
            Ok(if accepted { 0 } else { 1 })
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() {
    match run() {
        Ok(code) => exit(code),
        Err(msg) => {
            eprintln!("error: {msg}");
            exit(2);
        }
    }
}

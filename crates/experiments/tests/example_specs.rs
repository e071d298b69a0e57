//! The committed example specs are `cpo-experiments spec-example` output,
//! byte for byte, so they cannot drift from the request schema the
//! binary writes. After a schema change, regenerate each file with the
//! command its assertion names.

use std::path::Path;
use std::process::Command;

#[test]
fn committed_example_specs_match_spec_example() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let examples = [
        ("", "section2_energy.json"),
        ("large", "large_scale.json"),
        ("benes", "benes.json"),
        ("batch", "batch_mixed.jsonl"),
    ];
    for (which, file) in examples {
        let out = Command::new(env!("CARGO_BIN_EXE_cpo-experiments"))
            .arg("spec-example")
            .args((!which.is_empty()).then_some(which))
            .output()
            .expect("run cpo-experiments spec-example");
        assert!(out.status.success(), "spec-example {which}: {out:?}");
        let committed = std::fs::read(dir.join(file)).expect("read the committed spec");
        assert!(
            out.stdout == committed,
            "examples/specs/{file} differs from `cpo-experiments spec-example {which} > \
             examples/specs/{file}`; regenerate it"
        );
    }
}

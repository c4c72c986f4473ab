//! Text serialization of trained boosters.
//!
//! A [`GbmModel`] serializes to a line-oriented, tab-separated text format
//! mirroring the `FeaturePlan` codec in `safe-core`: a versioned header,
//! one record per line, and every `f64` written as its 16-hex-digit IEEE-754
//! bit pattern so a round trip is lossless to the bit. The serving subsystem
//! (`safe-serve`) embeds this block inside a `SafeArtifact` so a fitted
//! scorer can be persisted next to the feature plan it consumes.
//!
//! Format (version 1):
//!
//! ```text
//! SAFEGBM\t1
//! BASE\t<hex f64>
//! OBJECTIVE\tlogistic|squared
//! NFEATURES\t<usize>
//! TREE\t<n_nodes>
//! I\t<feature>\t<hex threshold>\t<0|1 default_left>\t<left>\t<right>\t<hex gain>
//! L\t<hex value>
//! ...
//! ```
//!
//! Nodes appear in arena order (index 0 is the root), `n_nodes` lines per
//! `TREE` record. `eval_history` is training-time telemetry, not part of the
//! scoring function, and is deliberately not serialized.

use crate::booster::GbmModel;
use crate::config::Objective;
use crate::error::GbmError;
use crate::tree::{Tree, TreeNode};

/// Current codec format version.
pub const GBM_FORMAT_VERSION: u32 = 1;

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_err(line: usize, message: impl Into<String>) -> GbmError {
    GbmError::Parse {
        line: line + 1,
        message: message.into(),
    }
}

fn parse_hex(s: &str, line: usize) -> Result<f64, GbmError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| parse_err(line, format!("bad f64 hex '{s}'")))
}

impl GbmModel {
    /// Serialize to the versioned text codec (lossless f64 round trip).
    pub fn to_text(&self) -> String {
        let mut out = String::from("SAFEGBM\t1\n");
        out.push_str(&format!("BASE\t{}\n", hex(self.base)));
        let obj = match self.objective {
            Objective::Logistic => "logistic",
            Objective::Squared => "squared",
        };
        out.push_str(&format!("OBJECTIVE\t{obj}\n"));
        out.push_str(&format!("NFEATURES\t{}\n", self.n_features));
        for tree in &self.trees {
            out.push_str(&format!("TREE\t{}\n", tree.nodes.len()));
            for node in &tree.nodes {
                match node {
                    TreeNode::Internal {
                        feature,
                        threshold,
                        default_left,
                        left,
                        right,
                        gain,
                    } => out.push_str(&format!(
                        "I\t{feature}\t{}\t{}\t{left}\t{right}\t{}\n",
                        hex(*threshold),
                        u8::from(*default_left),
                        hex(*gain),
                    )),
                    TreeNode::Leaf { value } => {
                        out.push_str(&format!("L\t{}\n", hex(*value)))
                    }
                }
            }
        }
        out
    }

    /// Parse the text codec. Validates the header version, node counts, and
    /// child indices, so hostile input fails with a typed error instead of
    /// aborting or hanging:
    ///
    /// - a `TREE` record may not declare more nodes than record lines
    ///   remain, so the node arena is never sized from an unchecked count;
    /// - every child index must lie inside its tree's arena and be greater
    ///   than its parent's own index. The grower allocates a parent before
    ///   its children, so every trained tree passes, and a tree that passes
    ///   is acyclic: prediction walks strictly increasing indices and ends.
    pub fn from_text(text: &str) -> Result<GbmModel, GbmError> {
        let records: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .collect();
        let mut lines = records.iter().copied();
        let (i, header) = lines.next().ok_or_else(|| parse_err(0, "empty model"))?;
        if header != "SAFEGBM\t1" {
            return Err(parse_err(i, "bad header (expected SAFEGBM v1)"));
        }

        let mut base: Option<f64> = None;
        let mut objective: Option<Objective> = None;
        let mut n_features: Option<usize> = None;
        let mut trees: Vec<Tree> = Vec::new();
        // Nodes still owed to the TREE record currently being filled.
        let mut pending: usize = 0;

        for (k, (i, line)) in lines.enumerate() {
            let fields: Vec<&str> = line.split('\t').collect();
            match fields[0] {
                "BASE" if fields.len() == 2 => base = Some(parse_hex(fields[1], i)?),
                "OBJECTIVE" if fields.len() == 2 => {
                    objective = Some(match fields[1] {
                        "logistic" => Objective::Logistic,
                        "squared" => Objective::Squared,
                        other => return Err(parse_err(i, format!("unknown objective '{other}'"))),
                    })
                }
                "NFEATURES" if fields.len() == 2 => {
                    n_features = Some(
                        fields[1]
                            .parse()
                            .map_err(|_| parse_err(i, "bad feature count"))?,
                    )
                }
                "TREE" if fields.len() == 2 => {
                    if pending > 0 {
                        return Err(parse_err(i, "previous TREE record is short of nodes"));
                    }
                    pending = fields[1]
                        .parse()
                        .map_err(|_| parse_err(i, "bad node count"))?;
                    if pending == 0 {
                        return Err(parse_err(i, "TREE must have at least one node"));
                    }
                    // `k` counts the records after the header up to and
                    // including this one.
                    let remaining = records.len() - 2 - k;
                    if pending > remaining {
                        let msg =
                            format!("TREE declares {pending} nodes but {remaining} records remain");
                        return Err(parse_err(i, msg));
                    }
                    trees.push(Tree { nodes: Vec::with_capacity(pending) });
                }
                "I" if fields.len() == 7 => {
                    let tree = match (pending, trees.last_mut()) {
                        (p, Some(t)) if p > 0 => t,
                        _ => return Err(parse_err(i, "node outside a TREE record")),
                    };
                    let feature: usize = fields[1]
                        .parse()
                        .map_err(|_| parse_err(i, "bad feature index"))?;
                    let threshold = parse_hex(fields[2], i)?;
                    let default_left = match fields[3] {
                        "0" => false,
                        "1" => true,
                        other => {
                            return Err(parse_err(i, format!("bad default flag '{other}'")))
                        }
                    };
                    let left: usize =
                        fields[4].parse().map_err(|_| parse_err(i, "bad left index"))?;
                    let right: usize =
                        fields[5].parse().map_err(|_| parse_err(i, "bad right index"))?;
                    let gain = parse_hex(fields[6], i)?;
                    tree.nodes.push(TreeNode::Internal {
                        feature,
                        threshold,
                        default_left,
                        left,
                        right,
                        gain,
                    });
                    pending -= 1;
                }
                "L" if fields.len() == 2 => {
                    let tree = match (pending, trees.last_mut()) {
                        (p, Some(t)) if p > 0 => t,
                        _ => return Err(parse_err(i, "node outside a TREE record")),
                    };
                    let value = parse_hex(fields[1], i)?;
                    tree.nodes.push(TreeNode::Leaf { value });
                    pending -= 1;
                }
                other => return Err(parse_err(i, format!("unrecognized record '{other}'"))),
            }
        }
        if pending > 0 {
            return Err(parse_err(0, "final TREE record is short of nodes"));
        }

        let base = base.ok_or_else(|| parse_err(0, "missing BASE record"))?;
        let objective = objective.ok_or_else(|| parse_err(0, "missing OBJECTIVE record"))?;
        let n_features = n_features.ok_or_else(|| parse_err(0, "missing NFEATURES record"))?;

        // Structural audit: child indices must point forward inside the
        // arena and split features inside the declared schema, so a
        // corrupted file is rejected here rather than panicking or looping
        // at predict time.
        for (t, tree) in trees.iter().enumerate() {
            for (idx, node) in tree.nodes.iter().enumerate() {
                if let TreeNode::Internal { feature, left, right, .. } = node {
                    if *left >= tree.nodes.len() || *right >= tree.nodes.len() {
                        return Err(parse_err(
                            0,
                            format!("tree {t}: child index out of bounds"),
                        ));
                    }
                    if *left <= idx || *right <= idx {
                        return Err(parse_err(
                            0,
                            format!("tree {t}: node {idx} points back to node {}", left.min(right)),
                        ));
                    }
                    if *feature >= n_features {
                        return Err(parse_err(
                            0,
                            format!("tree {t}: split feature {feature} >= NFEATURES {n_features}"),
                        ));
                    }
                }
            }
        }

        Ok(GbmModel {
            trees,
            base,
            objective,
            n_features,
            eval_history: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::booster::Gbm;
    use crate::config::GbmConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use safe_data::dataset::Dataset;

    fn toy(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cols = vec![Vec::with_capacity(n); 3];
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            let c: f64 = rng.gen_range(-1.0..1.0);
            cols[0].push(a);
            cols[1].push(b);
            cols[2].push(c);
            labels.push((a + 0.5 * b > 0.0) as u8);
        }
        Dataset::from_columns(
            vec!["a".into(), "b".into(), "c".into()],
            cols,
            Some(labels),
        )
        .unwrap()
    }

    #[test]
    fn round_trip_preserves_score_bits() {
        let train = toy(400, 1);
        let model = Gbm::new(GbmConfig { n_rounds: 12, ..GbmConfig::default() })
            .fit(&train, None)
            .unwrap();
        let back = GbmModel::from_text(&model.to_text()).unwrap();
        assert_eq!(back.n_trees(), model.n_trees());
        assert_eq!(back.n_features(), model.n_features());
        let direct = model.predict(&train);
        let recoded = back.predict(&train);
        for (a, b) in direct.iter().zip(&recoded) {
            assert_eq!(a.to_bits(), b.to_bits(), "score bits must survive the codec");
        }
    }

    #[test]
    fn text_is_stable_under_recode() {
        let train = toy(200, 2);
        let model = Gbm::default_trainer().fit(&train, None).unwrap();
        let text = model.to_text();
        let recoded = GbmModel::from_text(&text).unwrap().to_text();
        assert_eq!(text, recoded);
    }

    #[test]
    fn squared_objective_round_trips() {
        let train = toy(200, 3);
        let model = Gbm::new(GbmConfig {
            objective: Objective::Squared,
            n_rounds: 5,
            ..GbmConfig::default()
        })
        .fit(&train, None)
        .unwrap();
        let back = GbmModel::from_text(&model.to_text()).unwrap();
        assert_eq!(back.objective(), Objective::Squared);
        assert_eq!(back.base_margin().to_bits(), model.base_margin().to_bits());
    }

    #[test]
    fn gnarly_leaf_values_survive() {
        let model = GbmModel {
            trees: vec![Tree {
                nodes: vec![TreeNode::Internal {
                    feature: 0,
                    threshold: 0.1 + 0.2,
                    default_left: false,
                    left: 1,
                    right: 2,
                    gain: 1e-300,
                },
                TreeNode::Leaf { value: -0.0 },
                TreeNode::Leaf { value: f64::MIN_POSITIVE }],
            }],
            base: f64::NAN,
            objective: Objective::Logistic,
            n_features: 1,
            eval_history: Vec::new(),
        };
        let back = GbmModel::from_text(&model.to_text()).unwrap();
        assert!(back.base_margin().is_nan());
        match &back.trees[0].nodes[1] {
            TreeNode::Leaf { value } => assert_eq!(value.to_bits(), (-0.0f64).to_bits()),
            other => panic!("expected leaf, got {other:?}"),
        }
        match &back.trees[0].nodes[0] {
            TreeNode::Internal { threshold, .. } => {
                assert_eq!(threshold.to_bits(), (0.1f64 + 0.2).to_bits())
            }
            other => panic!("expected internal, got {other:?}"),
        }
    }

    #[test]
    fn bad_text_rejected_with_line_numbers() {
        assert!(GbmModel::from_text("").is_err());
        assert!(GbmModel::from_text("NOTAGBM\t1\n").is_err());
        // Unknown record kind.
        let err = GbmModel::from_text("SAFEGBM\t1\nBOGUS\tx\n").unwrap_err();
        assert!(matches!(err, GbmError::Parse { line: 2, .. }), "{err:?}");
        // Node outside any TREE record.
        assert!(GbmModel::from_text(
            "SAFEGBM\t1\nBASE\t0000000000000000\nOBJECTIVE\tlogistic\nNFEATURES\t1\nL\t0000000000000000\n"
        )
        .is_err());
        // Short TREE record.
        assert!(GbmModel::from_text(
            "SAFEGBM\t1\nBASE\t0000000000000000\nOBJECTIVE\tlogistic\nNFEATURES\t1\nTREE\t2\nL\t0000000000000000\n"
        )
        .is_err());
    }

    #[test]
    fn corrupt_indices_rejected() {
        // Child index out of bounds.
        let text = "SAFEGBM\t1\nBASE\t0000000000000000\nOBJECTIVE\tlogistic\nNFEATURES\t2\n\
                    TREE\t3\nI\t0\t0000000000000000\t1\t1\t9\t0000000000000000\n\
                    L\t0000000000000000\nL\t0000000000000000\n";
        assert!(GbmModel::from_text(text).is_err());
        // Split feature outside the declared schema.
        let text = "SAFEGBM\t1\nBASE\t0000000000000000\nOBJECTIVE\tlogistic\nNFEATURES\t1\n\
                    TREE\t3\nI\t5\t0000000000000000\t1\t1\t2\t0000000000000000\n\
                    L\t0000000000000000\nL\t0000000000000000\n";
        assert!(GbmModel::from_text(text).is_err());
    }

    #[test]
    fn child_pointing_back_is_rejected() {
        // A node that is its own child would make prediction loop forever;
        // so would a child that points back at an ancestor.
        let head = "SAFEGBM\t1\nBASE\t0000000000000000\nOBJECTIVE\tlogistic\nNFEATURES\t1\n";
        let zero = "0000000000000000";
        for (left, right) in [(0, 2), (1, 0)] {
            let text = format!(
                "{head}TREE\t3\nI\t0\t{zero}\t1\t{left}\t{right}\t{zero}\nL\t{zero}\nL\t{zero}\n"
            );
            let err = GbmModel::from_text(&text).unwrap_err();
            assert!(err.to_string().contains("points back"), "{err}");
        }
        let text = format!(
            "{head}TREE\t5\nI\t0\t{zero}\t1\t1\t2\t{zero}\nI\t0\t{zero}\t1\t0\t3\t{zero}\n\
             L\t{zero}\nL\t{zero}\nL\t{zero}\n"
        );
        assert!(GbmModel::from_text(&text).is_err(), "ancestor back-edge");
    }

    #[test]
    fn huge_declared_node_count_is_rejected_before_allocating() {
        let text = "SAFEGBM\t1\nBASE\t0000000000000000\nOBJECTIVE\tlogistic\nNFEATURES\t1\n\
                    TREE\t999999999\nL\t0000000000000000\n";
        let err = GbmModel::from_text(text).unwrap_err();
        assert!(matches!(err, GbmError::Parse { line: 5, .. }), "{err:?}");
        assert!(err.to_string().contains("records remain"), "{err}");
        // Exactly as many records as declared still parses.
        let ok = text.replace("999999999", "1");
        assert_eq!(GbmModel::from_text(&ok).unwrap().n_trees(), 1);
    }
}

//! Seeded inputs and their ground truth.
//!
//! Ground truth never comes from the checker: generated units carry the
//! bugs `vault_corpus::synth` seeded into them, corpus units carry the
//! corpus's recorded expectations, and every edit of the edit script
//! predicts its own effect from how it was built.

use vault_corpus::synth::{self, ProjectConfig, SeededBug, Shape, SynthConfig};
use vault_corpus::{floppy, sockets, Expectation};

/// SplitMix64: a small, fully deterministic generator for choices the
/// benchmark makes itself.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// What the checker must answer for one unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Truth {
    pub accept: bool,
    /// Error codes that must all be reported when the unit is rejected.
    pub codes: Vec<&'static str>,
}

impl Truth {
    pub fn accepted() -> Truth {
        Truth {
            accept: true,
            codes: Vec::new(),
        }
    }

    pub fn rejected(code: vault_syntax::Code) -> Truth {
        Truth {
            accept: false,
            codes: vec![code.as_str()],
        }
    }

    fn of_seeded(bugs: &[SeededBug]) -> Truth {
        let mut codes: Vec<&'static str> =
            bugs.iter().map(|b| b.expected_code().as_str()).collect();
        codes.sort_unstable();
        codes.dedup();
        Truth {
            accept: codes.is_empty(),
            codes,
        }
    }
}

/// One named unit of a project.
#[derive(Clone, Debug)]
pub struct Unit {
    pub name: String,
    pub source: String,
}

/// Input sizes.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Generated socket-worker units in a project.
    pub project_units: usize,
    pub fns_per_unit: usize,
    pub stmts_per_fn: usize,
}

impl Size {
    pub fn new(smoke: bool) -> Size {
        Size {
            project_units: if smoke { 16 } else { 280 },
            fns_per_unit: 8,
            stmts_per_fn: 12,
        }
    }
}

/// Index of the shared interface every generated worker imports.
const IFACE: usize = 0;

/// Bug rate of the generated project units.
pub const PROJECT_BUG_RATE: f64 = 0.1;

/// A generated project: `vault_corpus::synth::generate_project` socket
/// workers with seeded bugs, the floppy-driver and socket-server corpus
/// splits, and one seeded mutant of each split (renamed so both copies
/// coexist).
pub struct Project {
    pub units: Vec<Unit>,
    pub truth: Vec<Truth>,
    /// Generated workers without a seeded bug (edit targets).
    pub clean_workers: Vec<usize>,
    /// Index of the socket corpus `handlers` unit (imported, has bodies).
    pub handlers: usize,
}

fn rename_split(units: Vec<(&'static str, String)>, prefix: &str) -> Vec<(String, String)> {
    let names: Vec<&str> = units.iter().map(|(n, _)| *n).collect();
    units
        .iter()
        .map(|(n, src)| {
            let mut s = src.clone();
            for m in &names {
                s = s.replace(
                    &format!("import \"{m}\";"),
                    &format!("import \"{prefix}{m}\";"),
                );
            }
            (format!("{prefix}{n}"), s)
        })
        .collect()
}

fn corpus_truth(id: &str, programs: Vec<vault_corpus::CorpusProgram>) -> Truth {
    let p = programs
        .into_iter()
        .find(|p| p.id == id)
        .unwrap_or_else(|| panic!("corpus program {id} is missing"));
    match p.expect {
        Expectation::Accept => Truth::accepted(),
        Expectation::Reject(codes) => Truth {
            accept: false,
            codes: codes.iter().map(|c| c.as_str()).collect(),
        },
    }
}

pub fn project(seed: u64, size: Size) -> Project {
    let synth = synth::generate_project(&ProjectConfig {
        units: size.project_units,
        fns_per_unit: size.fns_per_unit,
        stmts_per_fn: size.stmts_per_fn,
        seed,
        bug_rate: PROJECT_BUG_RATE,
    });
    let mut units = Vec::new();
    let mut truth = Vec::new();
    let mut clean_workers = Vec::new();
    for (i, (name, source)) in synth.units.iter().enumerate() {
        let bugs: Vec<SeededBug> = synth
            .seeded
            .iter()
            .filter(|(u, _)| *u == i)
            .map(|(_, b)| *b)
            .collect();
        if i > 0 && bugs.is_empty() {
            clean_workers.push(i);
        }
        units.push(Unit {
            name: name.clone(),
            source: source.clone(),
        });
        truth.push(Truth::of_seeded(&bugs));
    }

    // The socket split follows the three floppy units; `handlers` is its second.
    let handlers = units.len() + 3 + 1;
    let mut push_split = |split: Vec<(String, String)>, t: &dyn Fn(usize) -> Truth| {
        for (k, (name, source)) in split.into_iter().enumerate() {
            units.push(Unit { name, source });
            truth.push(t(k));
        }
    };
    let floppy_ok = corpus_truth("floppy_driver", floppy::programs());
    let sockets_ok = corpus_truth("socket_server", sockets::programs());
    push_split(rename_split(floppy::project_units(), ""), &|_| {
        floppy_ok.clone()
    });
    push_split(rename_split(sockets::project_units(), ""), &|_| {
        sockets_ok.clone()
    });

    // One mutant of each split. Only mutants of a unit nothing imports,
    // so every other unit of the split keeps its pristine verdict.
    let fm = floppy::project_mutants();
    let (_, f_units, f_code) = fm[(seed % fm.len() as u64) as usize].clone();
    push_split(rename_split(f_units, "mf_"), &|k| {
        if k == 2 {
            Truth::rejected(f_code)
        } else {
            floppy_ok.clone()
        }
    });
    let sm: Vec<_> = sockets::project_mutants()
        .into_iter()
        .filter(|(id, _, _)| sockets::mutant_unit(id) == Some(2))
        .collect();
    let (_, s_units, s_code) = sm[((seed / 7) % sm.len() as u64) as usize].clone();
    push_split(rename_split(s_units, "ms_"), &|k| {
        if k == 2 {
            Truth::rejected(s_code)
        } else {
            sockets_ok.clone()
        }
    });
    debug_assert_eq!(units[handlers].name, "handlers");
    Project {
        units,
        truth,
        clean_workers,
        handlers,
    }
}

impl Project {
    pub fn bytes(&self) -> usize {
        self.units.iter().map(|u| u.source.len()).sum()
    }

    /// Write `dir/vault.toml` and one `.vlt` file per unit.
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut manifest = String::new();
        for u in &self.units {
            manifest.push_str(&format!("[[unit]]\npath = \"{}.vlt\"\n", u.name));
            std::fs::write(dir.join(format!("{}.vlt", u.name)), &u.source)?;
        }
        std::fs::write(dir.join("vault.toml"), manifest)
    }

    /// A `check-project` request line for the current sources.
    pub fn request_line(&self, id: u64) -> String {
        let mut s = String::with_capacity(self.bytes() + self.bytes() / 8 + 64);
        s.push_str(&format!(
            "{{\"op\":\"check-project\",\"id\":{id},\"units\":["
        ));
        for (i, u) in self.units.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            crate::proc::unit_json(&mut s, &u.name, &u.source);
        }
        s.push_str("]}\n");
        s
    }
}

/// The kinds of scripted edit in `edit-session`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// Function-body edit in a generated worker nothing imports.
    LeafBody,
    /// Function-body edit in the corpus `handlers` unit, which `server`
    /// imports: the interface cutoff keeps `server` cached.
    ImportedBody,
    /// Export-surface edit of the interface every worker imports: the
    /// whole dependent cone is re-checked.
    Surface,
    /// Drop a worker's final `chan_close`: a known leak.
    InjectBug,
    /// Undo the most recent injected leak.
    Revert,
}

/// One round of the edit script: 12 leaf edits, 3 imported-body edits,
/// 2 injected bugs and their 2 reverts, and 1 surface edit.
pub const EDIT_ROUND: [EditKind; 20] = {
    use EditKind::*;
    [
        LeafBody,
        LeafBody,
        ImportedBody,
        LeafBody,
        InjectBug,
        LeafBody,
        LeafBody,
        ImportedBody,
        LeafBody,
        Revert,
        LeafBody,
        LeafBody,
        ImportedBody,
        LeafBody,
        InjectBug,
        LeafBody,
        LeafBody,
        Surface,
        LeafBody,
        Revert,
    ]
};

const LEAF_MARK: &str = "  chan_ready(ch);\n";
const CLOSE_MARK: &str = "  chan_close(ch);\n}\n";
const LEAK_TEXT: &str = "  // injected leak: the channel is never closed\n}\n";
const HANDLER_MARK: &str = "  receive(conn, buf);\n  send(conn, buf);\n";

/// Applies the edit script to a project, keeping the ground truth in step.
pub struct Editor {
    pub project: Project,
    base: Vec<String>,
    rng: Rng,
    counter: u64,
    injected: Vec<usize>,
    /// Worker edit targets: clean workers carrying both markers.
    targets: Vec<usize>,
    /// Current leaf insertion per unit.
    inserted: Vec<Option<u64>>,
}

impl Editor {
    pub fn new(project: Project, seed: u64) -> Editor {
        let base: Vec<String> = project.units.iter().map(|u| u.source.clone()).collect();
        let targets = project
            .clean_workers
            .iter()
            .copied()
            .filter(|&i| base[i].contains(LEAF_MARK) && base[i].ends_with(CLOSE_MARK))
            .collect();
        assert!(
            base[project.handlers].contains(HANDLER_MARK),
            "handlers marker drifted"
        );
        let n = base.len();
        Editor {
            project,
            base,
            rng: Rng::new(seed ^ 0xed17),
            counter: 0,
            injected: Vec::new(),
            targets,
            inserted: vec![None; n],
        }
    }

    fn render_worker(&mut self, i: usize) {
        let mut s = self.base[i].clone();
        if let Some(k) = self.inserted[i] {
            s = s.replacen(LEAF_MARK, &format!("{LEAF_MARK}  chan_xfer(ch, {k});\n"), 1);
        }
        if self.injected.contains(&i) {
            s.truncate(s.len() - CLOSE_MARK.len());
            s.push_str(LEAK_TEXT);
        }
        self.project.units[i].source = s;
    }

    fn pick_target(&mut self) -> usize {
        loop {
            let i = self.targets[self.rng.below(self.targets.len())];
            if !self.injected.contains(&i) {
                return i;
            }
        }
    }

    /// Apply one edit; returns the index of the unit it touched.
    pub fn apply(&mut self, kind: EditKind) -> usize {
        self.counter += 1;
        let k = self.counter;
        match kind {
            EditKind::LeafBody => {
                let i = self.pick_target();
                self.inserted[i] = Some(k);
                self.render_worker(i);
                i
            }
            EditKind::ImportedBody => {
                let h = self.project.handlers;
                self.project.units[h].source = self.base[h].replacen(
                    HANDLER_MARK,
                    &format!("{HANDLER_MARK}  log_event({k});\n"),
                    1,
                );
                h
            }
            EditKind::Surface => {
                let f = IFACE;
                self.project.units[f].source =
                    format!("{}void chan_probe_{k}(int n) [uses net];\n", self.base[f]);
                f
            }
            EditKind::InjectBug => {
                let i = self.pick_target();
                self.injected.push(i);
                self.render_worker(i);
                self.project.truth[i] = Truth::rejected(SeededBug::Leak.expected_code());
                i
            }
            EditKind::Revert => {
                let i = self.injected.pop().expect("a revert follows an injection");
                self.render_worker(i);
                self.project.truth[i] = Truth::accepted();
                i
            }
        }
    }
}

/// Statement mixes drawn for standalone units.
pub const SHAPES: [Shape; 6] = [
    Shape::Mixed,
    Shape::Straight,
    Shape::Branchy,
    Shape::Loopy,
    Shape::Sockets,
    Shape::VariantHeavy,
];

/// Bug rate of standalone units. `Shape::VariantHeavy` is drawn with no
/// seeded bugs: `synth::generate` records bugs for that shape but never
/// writes them into the source, so its labels would be wrong.
pub const UNIT_BUG_RATE: f64 = 0.15;

/// A standalone unit for `serve-mix`.
#[derive(Clone, Debug)]
pub struct SoloUnit {
    pub name: String,
    pub source: String,
    pub truth: Truth,
}

/// A standalone unit of the given statement mix, its content drawn from
/// `seed`. Callers cycle through [`SHAPES`], so the mix of shapes is the
/// same whatever the seed.
pub fn solo_unit(seed: u64, shape: Shape) -> SoloUnit {
    let p = synth::generate(&SynthConfig {
        functions: 12,
        stmts_per_fn: 24,
        seed,
        bug_rate: if shape == Shape::VariantHeavy {
            0.0
        } else {
            UNIT_BUG_RATE
        },
        shape,
    });
    let bugs: Vec<SeededBug> = p.seeded.iter().map(|(_, b)| *b).collect();
    SoloUnit {
        name: format!("u{seed:016x}.vlt"),
        source: p.source,
        truth: Truth::of_seeded(&bugs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projects_are_deterministic_and_labelled() {
        let a = project(3, Size::new(true));
        let b = project(3, Size::new(true));
        assert_eq!(a.units.len(), b.units.len());
        assert!(a
            .units
            .iter()
            .zip(&b.units)
            .all(|(x, y)| x.source == y.source));
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.units[a.handlers].name, "handlers");
        // Both mutant splits are rejected somewhere.
        assert!(a.truth.iter().filter(|t| !t.accept).count() >= 2);
        // Unit names are unique.
        let mut names: Vec<&str> = a.units.iter().map(|u| u.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), a.units.len());
    }

    #[test]
    fn edits_keep_truth_in_step() {
        let mut ed = Editor::new(project(5, Size::new(true)), 5);
        for kind in EDIT_ROUND {
            let i = ed.apply(kind);
            assert!(i < ed.project.units.len());
        }
        // Every injection was reverted: all workers are back to their seeded truth.
        let fresh = project(5, Size::new(true));
        assert_eq!(ed.project.truth, fresh.truth);
    }

    #[test]
    fn drawn_units_agree_with_their_labels() {
        for seed in 0..30u64 {
            let u = solo_unit(seed, SHAPES[seed as usize % SHAPES.len()]);
            let r = vault_core::check_source(&u.name, &u.source);
            let codes: Vec<String> = r
                .error_codes()
                .iter()
                .map(|c| c.as_str().to_string())
                .collect();
            crate::oracle::verdict_matches(&u.name, &u.truth, r.verdict().as_str(), &codes)
                .unwrap();
        }
    }

    #[test]
    fn solo_units_follow_their_seed() {
        let unit = |seed| solo_unit(seed, Shape::Mixed).source;
        assert_eq!(unit(9), unit(9));
        assert_ne!(unit(9), unit(10));
    }
}

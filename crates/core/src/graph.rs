//! Acyclic task-dependency graphs for video processing.
//!
//! §2.2: "Based on the required output variants, an acyclic task
//! dependency graph is generated to capture the work to be performed.
//! The graph is placed into a global work queue system, where each
//! operation is a variable-sized 'step'". This module builds those
//! graphs — analyze → chunk transcodes (MOT or SOTs) → assemble →
//! post-processing steps — and provides ready-order iteration for the
//! scheduler.

/// Kind of work a step performs (the worker types of §3.3.3).
#[derive(Debug, Clone, PartialEq)]
pub enum StepKind {
    /// Probe the input, pick output variants and chunk boundaries.
    Analyze,
    /// Transcode one chunk (the VCU-eligible step).
    TranscodeChunk {
        /// Chunk index.
        chunk: usize,
        /// Whether this step produces the full ladder (MOT) or one
        /// output (SOT).
        mot: bool,
    },
    /// Stitch chunk outputs into playable files, run integrity checks.
    Assemble,
    /// Thumbnail extraction (CPU worker).
    Thumbnail,
    /// Search-signal / fingerprint generation (CPU worker).
    Fingerprint,
    /// Notify serving systems the video is ready.
    Notify,
}

/// One node of the dependency graph.
#[derive(Debug, Clone)]
pub struct Step {
    /// Step id (index into the graph).
    pub id: usize,
    /// What the step does.
    pub kind: StepKind,
    /// Ids of steps that must complete first.
    pub deps: Vec<usize>,
}

/// An acyclic task-dependency graph.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    steps: Vec<Step>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Adds a step with dependencies, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if any dependency id does not exist yet (which also
    /// guarantees acyclicity by construction).
    pub fn add(&mut self, kind: StepKind, deps: Vec<usize>) -> usize {
        let id = self.steps.len();
        for &d in &deps {
            assert!(d < id, "dependency {d} does not exist yet");
        }
        self.steps.push(Step { id, kind, deps });
        id
    }

    /// All steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the graph has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Returns the "waves" of steps that can run concurrently: wave 0
    /// has no dependencies, wave k+1 depends only on waves ≤ k. This is
    /// the parallelism the chunked pipeline exploits.
    pub fn waves(&self) -> Vec<Vec<usize>> {
        let mut level = vec![0usize; self.steps.len()];
        for s in &self.steps {
            level[s.id] = s.deps.iter().map(|&d| level[d] + 1).max().unwrap_or(0);
        }
        let max_level = level.iter().copied().max().unwrap_or(0);
        let mut waves = vec![Vec::new(); max_level + 1];
        for (id, &l) in level.iter().enumerate() {
            waves[l].push(id);
        }
        waves
    }

    /// Builds the standard upload-processing graph: analyze, then one
    /// transcode step per chunk (MOT, or one SOT per ladder rung when
    /// `mot` is false and `outputs` > 1), then assemble + auxiliary
    /// steps, then notify.
    pub fn upload(chunks: usize, mot: bool, outputs: usize) -> TaskGraph {
        assert!(chunks > 0, "need at least one chunk");
        assert!(outputs > 0, "need at least one output");
        let mut g = TaskGraph::new();
        let analyze = g.add(StepKind::Analyze, vec![]);
        let mut transcodes = Vec::new();
        for c in 0..chunks {
            if mot {
                transcodes.push(g.add(
                    StepKind::TranscodeChunk {
                        chunk: c,
                        mot: true,
                    },
                    vec![analyze],
                ));
            } else {
                for _ in 0..outputs {
                    transcodes.push(g.add(
                        StepKind::TranscodeChunk {
                            chunk: c,
                            mot: false,
                        },
                        vec![analyze],
                    ));
                }
            }
        }
        let assemble = g.add(StepKind::Assemble, transcodes.clone());
        let thumb = g.add(StepKind::Thumbnail, vec![analyze]);
        let fp = g.add(StepKind::Fingerprint, vec![analyze]);
        g.add(StepKind::Notify, vec![assemble, thumb, fp]);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transcode_steps(g: &TaskGraph) -> usize {
        let is_transcode = |s: &&Step| matches!(s.kind, StepKind::TranscodeChunk { .. });
        g.steps().iter().filter(is_transcode).count()
    }

    #[test]
    fn upload_graph_shape_mot() {
        let g = TaskGraph::upload(4, true, 6);
        // analyze + 4 transcodes + assemble + thumb + fp + notify = 9.
        assert_eq!(g.len(), 9);
        let transcodes = transcode_steps(&g);
        assert_eq!(transcodes, 4);
    }

    #[test]
    fn upload_graph_shape_sot_multiplies() {
        let g = TaskGraph::upload(4, false, 6);
        let transcodes = transcode_steps(&g);
        assert_eq!(transcodes, 24, "one SOT step per chunk per rung");
    }

    #[test]
    fn chunks_run_in_one_wave() {
        let g = TaskGraph::upload(8, true, 6);
        let waves = g.waves();
        // Wave 0: analyze. Wave 1: all transcodes (+thumb+fp). Wave 2:
        // assemble. Wave 3: notify.
        assert_eq!(waves.len(), 4);
        let transcode_wave: Vec<_> = waves[1]
            .iter()
            .filter(|&&id| matches!(g.steps()[id].kind, StepKind::TranscodeChunk { .. }))
            .collect();
        assert_eq!(transcode_wave.len(), 8, "all chunks parallel");
    }

    #[test]
    fn execution_respects_dependencies() {
        let g = TaskGraph::upload(5, true, 6);
        let waves = g.waves();
        assert_eq!(waves.len(), 4);
        for (k, wave) in waves.iter().enumerate() {
            for &id in wave {
                let earlier = |d: &usize| waves[..k].iter().any(|w| w.contains(d));
                assert!(g.steps()[id].deps.iter().all(earlier), "step {id}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_deps_rejected() {
        let mut g = TaskGraph::new();
        g.add(StepKind::Analyze, vec![3]);
    }

    #[test]
    fn notify_is_last() {
        let g = TaskGraph::upload(2, true, 4);
        let last = g.steps().last().unwrap();
        assert_eq!(last.kind, StepKind::Notify);
        assert!(!last.deps.is_empty());
    }
}

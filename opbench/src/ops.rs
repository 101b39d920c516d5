//! Seeded operation streams.
//!
//! The benchmark seed is turned into the order of a fixed multiset of
//! operator operations; the workloads only ever see these generated
//! values. The amount of work is an operation count, never a
//! wall-clock duration, so one seed always produces the same digest.
//!
//! Every deployment is built from [`DEPLOY_SEED`], not from the
//! benchmark seed: the shadowing draw decides which grid links exist,
//! and with it how far traceroutes get, so a per-seed deployment would
//! turn seeds into different workloads rather than repeated samples of
//! one.

use liteview::session::RequestBody;
use liteview::shell::ShellCommand;

/// SplitMix64: tiny, seedable and stable across toolchains.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Seed of every deployment: the `figures` default.
pub const DEPLOY_SEED: u64 = 42;

/// `figures --scale` grid: 25 rows × 40 columns at 24 m.
pub const GRID_ROWS: usize = 25;
/// Columns of the grid.
pub const GRID_COLS: usize = 40;
/// Fresh grids per repetition. Traceroute outcomes on the grid are
/// correlated over long stretches of one run, so one long episode
/// samples few independent network states; several short ones from
/// the same deployment, each with its own command order, sample more.
pub const GRID_EPISODES: usize = 12;
/// Operator rounds per episode (14 commands each); with
/// [`GRID_EPISODES`] a repetition holds 1176 commands, enough for a p99
/// over per-command samples.
pub const GRID_ROUNDS: usize = 7;
/// Unattended simulated stretch closing each round, milliseconds.
pub const GRID_STRETCH_MS: u64 = 1000;

/// One operator command on the grid (always issued at the bridge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridCmd {
    /// Geographic traceroute to a node id.
    Traceroute(u16),
    /// `list quality` on the bridge.
    NeighborList,
    /// `power` on the bridge.
    GetPower,
}

/// The grid workload's generated inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridPlan {
    /// Per episode, the commands of each round in issue order; every
    /// round ends with a [`GRID_STRETCH_MS`] unattended stretch.
    pub episodes: Vec<Vec<Vec<GridCmd>>>,
}

/// The eight `scale_point` traceroute targets: the far corner, the two
/// other corners and five interior nodes.
pub fn grid_targets() -> [u16; 8] {
    let (rows, cols) = (GRID_ROWS, GRID_COLS);
    let n = rows * cols;
    [
        n - 1,
        (rows - 1) * cols,
        cols - 1,
        n / 2,
        n / 3,
        2 * n / 3,
        n / 4,
        3 * n / 4,
    ]
    .map(|t| t as u16)
}

/// The commands of one grid round: the eight traceroutes, then three
/// neighbor lists and three get powers on the bridge.
///
/// Traceroutes from the corner bridge come in three clusters: 20-50%
/// end at the first hop (~0.5 ms, the bridge has no forward neighbor
/// at that moment), most others take 5-9 ms, and 5-9% run about three
/// times as long. List and power wait out their 500 ms window at
/// 5-8 ms. Each percentile must fall inside a cluster for every seed,
/// not on an edge: p99 needs the long traceroutes well above 1% of the
/// commands, and the median needs the quick ones well below half. At
/// eight traceroutes in fourteen commands they are 3-5% and 10-27%.
pub fn grid_round() -> Vec<GridCmd> {
    grid_targets()
        .into_iter()
        .map(GridCmd::Traceroute)
        .chain([GridCmd::NeighborList, GridCmd::GetPower].repeat(3))
        .collect()
}

/// Grid episodes: every round issues [`grid_round`], shuffled.
pub fn grid_plan(seed: u64) -> GridPlan {
    let mut rng = SplitMix::new(seed ^ 0x6772_6964);
    let episodes = (0..GRID_EPISODES)
        .map(|_| {
            (0..GRID_ROUNDS)
                .map(|_| {
                    let mut cmds = grid_round();
                    rng.shuffle(&mut cmds);
                    cmds
                })
                .collect()
        })
        .collect();
    GridPlan { episodes }
}

/// The corridor-diagnosis workload's generated inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorridorPlan {
    /// Index into `lv_testbed::fault_corpus` of each scenario replayed,
    /// in order: the whole corpus, rotated by the seed.
    pub scenarios: Vec<usize>,
}

/// Number of scenarios in `lv_testbed::fault_corpus`.
pub const CORPUS_LEN: usize = 5;

/// Corridor rotation: every scenario once per repetition.
pub fn corridor_plan(seed: u64) -> CorridorPlan {
    let mut rng = SplitMix::new(seed ^ 0x636f_7272);
    let start = (rng.next_u64() % CORPUS_LEN as u64) as usize;
    CorridorPlan {
        scenarios: (0..CORPUS_LEN).map(|i| (start + i) % CORPUS_LEN).collect(),
    }
}

/// Sessions per serve-session repetition.
pub const SERVE_SESSIONS: usize = 20;
/// Far end of the corridor, the ping and traceroute target.
pub const CORRIDOR_FAR: &str = "192.168.0.9";
/// The bridge every session logs into.
pub const CORRIDOR_BRIDGE: &str = "192.168.0.1";

/// The serve-session workload's generated inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePlan {
    /// Requests of each session, `Hello` first and `Bye` last.
    pub sessions: Vec<Vec<RequestBody>>,
}

/// The per-session mix, in a seeded order: ping, traceroute, get power
/// and neighbor list three times each, one `pwd` and one `run`.
///
/// Session verbs (`hello`, `cd`, `pwd`, `run`, `bye`) answer in
/// ~0.05-0.15 ms, get power and neighbor list in ~0.2 ms, ping and
/// traceroute in milliseconds. With fewer fixed-window commands the
/// session verbs make up about half the requests and the median sits on
/// the edge of their cluster; with these counts it sits well inside the
/// get power / neighbor list one.
pub fn serve_plan(seed: u64) -> ServePlan {
    let mut rng = SplitMix::new(seed ^ 0x7365_7276);
    let exec = |command| RequestBody::Exec { command };
    let sessions = (0..SERVE_SESSIONS)
        .map(|_| {
            let mut mix = vec![
                RequestBody::Pwd,
                RequestBody::Run {
                    nanos: 1_000_000_000,
                },
            ];
            for _ in 0..3 {
                mix.push(exec(ShellCommand::Ping {
                    dst: CORRIDOR_FAR.into(),
                    rounds: 1,
                    length: 32,
                    port: Some(10),
                }));
                mix.push(exec(ShellCommand::Traceroute {
                    dst: CORRIDOR_FAR.into(),
                    length: 32,
                    port: 10,
                }));
                mix.push(exec(ShellCommand::GetPower));
                mix.push(exec(ShellCommand::List { quality: true }));
            }
            rng.shuffle(&mut mix);
            let mut session = vec![
                RequestBody::Hello {
                    version: liteview::session::PROTOCOL_VERSION,
                },
                RequestBody::Cd {
                    node: CORRIDOR_BRIDGE.into(),
                },
            ];
            session.extend(mix);
            session.push(RequestBody::Bye);
            session
        })
        .collect();
    ServePlan { sessions }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_always_yields_the_same_streams() {
        for seed in [0, 1, 7, u64::MAX] {
            assert_eq!(grid_plan(seed), grid_plan(seed));
            assert_eq!(corridor_plan(seed), corridor_plan(seed));
            assert_eq!(serve_plan(seed), serve_plan(seed));
        }
        assert_ne!(grid_plan(1), grid_plan(2));
        assert_ne!(serve_plan(1), serve_plan(2));
    }

    #[test]
    fn streams_have_the_fixed_shape() {
        let g = grid_plan(3);
        assert_eq!(g.episodes.len(), GRID_EPISODES);
        assert_ne!(g.episodes[0], g.episodes[1]);
        for round in g.episodes.iter().flatten() {
            let mut sorted = round.clone();
            sorted.sort_by_key(|c| format!("{c:?}"));
            let mut want = grid_round();
            want.sort_by_key(|c| format!("{c:?}"));
            assert_eq!(sorted, want);
        }
        let c = corridor_plan(3);
        let mut idx = c.scenarios.clone();
        idx.sort();
        assert_eq!(idx, (0..CORPUS_LEN).collect::<Vec<_>>());
        let s = serve_plan(3);
        assert_eq!(s.sessions.len(), SERVE_SESSIONS);
        for session in &s.sessions {
            assert_eq!(session.len(), 17);
            assert!(matches!(session[0], RequestBody::Hello { .. }));
            assert!(matches!(session[16], RequestBody::Bye));
        }
    }
}

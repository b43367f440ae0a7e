//! Seeded job-stream generators for the three workloads.
//!
//! Every job is valid by construction: specs are the shipped case
//! studies, generated uniform specs, or those specs after monotone
//! edits (WCET decreases, LRC weakenings, fresh renames, added
//! replicas) that keep them schedulable and LRC-satisfying; scenarios
//! only name hosts the spec declares. A stream is a pure function of
//! `(workload, seed)`, so the same seed yields byte-identical request
//! lines.
//!
//! Each stream is built from *blocks* that contain every (spec, size)
//! stratum once in a seeded order. A run covers many blocks, so the mix
//! of work — and with it every end-to-end figure — does not depend on
//! which seed was drawn, only the order and the details within a stratum
//! do.

use logrel_lang::ast::{ArchItem, MapItem, Program};
use logrel_serve::proto::escape;
use logrel_sim::LaneMode;

/// The steer-by-wire case study.
pub const STEER_BY_WIRE: &str = include_str!("../../assets/steer_by_wire.htl");
/// The three-tank case study.
pub const THREE_TANK: &str = include_str!("../../assets/three_tank.htl");
/// The infusion-pump case study.
pub const INFUSION_PUMP: &str = include_str!("../../examples/htl/infusion_pump.htl");

/// Shipped scenarios for the infusion pump (they name its hosts).
const PUMP_SCENARIOS: [&str; 3] = [
    include_str!("../../examples/scenarios/pump_outage.scn"),
    include_str!("../../examples/scenarios/partition.scn"),
    include_str!("../../examples/scenarios/wearout.scn"),
];
/// A shipped scenario that names no host, so it applies to every spec.
const BURST_SCENARIO: &str = include_str!("../../examples/scenarios/steer_monitor_miss.scn");

/// Jobs per edit session: one spec author's run of consecutive edits.
pub const SESSION_LEN: usize = 8;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The spec author's edit loop: every job is a fresh edit.
    EditResubmit,
    /// Wide bit-sliced campaigns on cached specs.
    CampaignWide,
    /// Scalar and narrow-width campaigns on cached specs.
    CampaignNarrow,
}

impl Workload {
    /// All workloads, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::EditResubmit,
        Workload::CampaignWide,
        Workload::CampaignNarrow,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::EditResubmit => "edit_resubmit",
            Workload::CampaignWide => "campaign_wide",
            Workload::CampaignNarrow => "campaign_narrow",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: a tiny seeded generator, so streams depend on nothing
/// but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from neighbouring seeds.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        let mut rng = Rng(seed ^ 0x5EED_BE9C_4A11_D00D);
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One generated job, before it is rendered as a request line.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// HTL source, sent inline.
    pub spec: String,
    /// Scenario script, sent inline.
    pub scenario: String,
    /// Rounds per replication.
    pub rounds: u64,
    /// Replication count.
    pub replications: u64,
    /// Campaign base seed.
    pub seed: u64,
    /// Lane mode.
    pub lanes: LaneMode,
}

impl JobSpec {
    /// Simulated replication-rounds this job performs.
    #[must_use]
    pub fn rep_rounds(&self) -> u64 {
        self.rounds * self.replications
    }

    /// The `logrel-job-v1` request line (no trailing newline).
    #[must_use]
    pub fn request_line(&self, id: &str) -> String {
        let lanes = match self.lanes {
            LaneMode::Auto => "\"auto\"".to_owned(),
            LaneMode::Off => "\"off\"".to_owned(),
            LaneMode::Width(w) => w.to_string(),
        };
        format!(
            "{{\"schema\":\"logrel-job-v1\",\"id\":\"{}\",\"spec\":\"{}\",\"scenario\":\"{}\",\"rounds\":{},\"replications\":{},\"seed\":{},\"lanes\":{lanes}}}",
            escape(id),
            escape(&self.spec),
            escape(&self.scenario),
            self.rounds,
            self.replications,
            self.seed,
        )
    }
}

/// A uniform spec in the style of the bench crate's `big_htl_source`:
/// `tasks` independent sensor-fed tasks spread over two hosts, every
/// output under an LRC. WCETs vary (1–3 ticks) so WCET decreases apply.
#[must_use]
pub fn uniform_spec(tasks: usize) -> String {
    let mut out =
        format!("program uniform{tasks} {{\n    communicator s : float period 200 sensor;\n");
    for i in 0..tasks {
        out.push_str(&format!(
            "    communicator c{i} : float period 200 lrc 0.9;\n"
        ));
    }
    out.push_str("    module m {\n        start mode main period 200 {\n");
    for i in 0..tasks {
        out.push_str(&format!(
            "            invoke t{i} reads s[0] writes c{i}[1];\n"
        ));
    }
    out.push_str("        }\n    }\n    architecture {\n");
    out.push_str("        host h0 reliability 0.999;\n        host h1 reliability 0.999;\n");
    out.push_str("        sensor sn reliability 0.999;\n");
    for i in 0..tasks {
        out.push_str(&format!("        wcet t{i} on h{} {};\n", i % 2, 1 + i % 3));
        out.push_str(&format!("        wctt t{i} on h{} 1;\n", i % 2));
    }
    out.push_str("    }\n    map {\n");
    for i in 0..tasks {
        out.push_str(&format!("        t{i} -> h{};\n", i % 2));
    }
    out.push_str("        bind s -> sn;\n    }\n}\n");
    out
}

/// A spec of the edit family: its parsed AST and a host every edit
/// keeps (named by the edit-loop scenario).
struct Base {
    program: Program,
    host: String,
}

fn parse(source: &str) -> Program {
    logrel_lang::parse(source).expect("shipped and generated specs parse")
}

fn first_host(program: &Program) -> String {
    program
        .arch
        .iter()
        .find_map(|item| match item {
            ArchItem::Host { name, .. } => Some(name.clone()),
            _ => None,
        })
        .expect("every family spec declares a host")
}

fn edit_family() -> Vec<Base> {
    [
        STEER_BY_WIRE.to_owned(),
        THREE_TANK.to_owned(),
        INFUSION_PUMP.to_owned(),
        uniform_spec(16),
        uniform_spec(64),
    ]
    .iter()
    .map(|source| {
        let program = parse(source);
        let host = first_host(&program);
        Base { program, host }
    })
    .collect()
}

/// The edit kinds of the spec author's loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// Lower one WCET entry by a tick (a refinement: reuse path).
    WcetDecrease,
    /// Lower one LRC (a weakening: reuse path).
    LrcWeaken,
    /// Give a task or communicator a fresh name (dirties most queries).
    Rename,
    /// Map a task onto one more host (dirties most queries).
    AddReplica,
}

impl Edit {
    fn draw(rng: &mut Rng) -> Edit {
        match rng.below(10) {
            0..=2 => Edit::WcetDecrease,
            3..=5 => Edit::LrcWeaken,
            6 | 7 => Edit::Rename,
            _ => Edit::AddReplica,
        }
    }
}

/// Applies `edit` (falling back to an LRC weakening when the program
/// has nothing the edit can touch). `tag` is unique per job, so fresh
/// names never collide. Returns the edit actually applied.
pub fn apply_edit(program: &mut Program, edit: Edit, tag: usize, rng: &mut Rng) -> Edit {
    match edit {
        Edit::WcetDecrease => {
            let candidates: Vec<usize> = (0..program.arch.len())
                .filter(|&i| matches!(program.arch[i], ArchItem::Wcet { ticks, .. } if ticks > 1))
                .collect();
            if candidates.is_empty() {
                return apply_edit(program, Edit::LrcWeaken, tag, rng);
            }
            if let ArchItem::Wcet { ticks, .. } =
                &mut program.arch[candidates[rng.below(candidates.len())]]
            {
                *ticks -= 1;
            }
            Edit::WcetDecrease
        }
        Edit::LrcWeaken => {
            let candidates: Vec<usize> = (0..program.communicators.len())
                .filter(|&i| program.communicators[i].lrc.is_some())
                .collect();
            let c = &mut program.communicators[candidates[rng.below(candidates.len())]];
            c.lrc = c.lrc.map(|mu| mu * 0.99);
            Edit::LrcWeaken
        }
        Edit::Rename => {
            if rng.below(2) == 0 {
                rename_task(program, rng, tag);
            } else {
                rename_communicator(program, rng, tag);
            }
            Edit::Rename
        }
        Edit::AddReplica => {
            add_replica(program, rng, tag);
            Edit::AddReplica
        }
    }
}

fn task_names(program: &Program) -> Vec<String> {
    let mut names: Vec<String> = program
        .map
        .iter()
        .filter_map(|item| match item {
            MapItem::Assign { task, .. } => Some(task.clone()),
            MapItem::Bind { .. } => None,
        })
        .collect();
    names.dedup();
    names
}

fn rename_task(program: &mut Program, rng: &mut Rng, tag: usize) {
    let tasks = task_names(program);
    let old = tasks[rng.below(tasks.len())].clone();
    let new = format!("{old}_r{tag}");
    for mode in program.modules.iter_mut().flat_map(|m| m.modes.iter_mut()) {
        for inv in &mut mode.invocations {
            if inv.task == old {
                inv.task.clone_from(&new);
            }
        }
    }
    for item in &mut program.arch {
        if let ArchItem::Wcet { task, .. } | ArchItem::Wctt { task, .. } = item {
            if *task == old {
                task.clone_from(&new);
            }
        }
    }
    for item in &mut program.map {
        if let MapItem::Assign { task, .. } = item {
            if *task == old {
                task.clone_from(&new);
            }
        }
    }
}

fn rename_communicator(program: &mut Program, rng: &mut Rng, tag: usize) {
    let i = rng.below(program.communicators.len());
    let old = program.communicators[i].name.clone();
    let new = format!("{old}_r{tag}");
    program.communicators[i].name.clone_from(&new);
    for mode in program.modules.iter_mut().flat_map(|m| m.modes.iter_mut()) {
        for inv in &mut mode.invocations {
            for access in inv.reads.iter_mut().chain(inv.writes.iter_mut()) {
                if access.comm == old {
                    access.comm.clone_from(&new);
                }
            }
        }
    }
    for item in &mut program.map {
        if let MapItem::Bind { comm, .. } = item {
            if *comm == old {
                comm.clone_from(&new);
            }
        }
    }
}

/// Adds a replica of a random task: on a declared host that already
/// has WCET/WCTT rows for it if there is one, else on a fresh host with
/// the task's timing copied.
fn add_replica(program: &mut Program, rng: &mut Rng, tag: usize) {
    let assigns: Vec<usize> = (0..program.map.len())
        .filter(|&i| matches!(program.map[i], MapItem::Assign { .. }))
        .collect();
    let at = assigns[rng.below(assigns.len())];
    let MapItem::Assign { task, hosts, .. } = &program.map[at] else {
        unreachable!("filtered to assignments")
    };
    let task = task.clone();
    let timed = |kind_wcet: bool, host_name: &str| {
        program.arch.iter().find_map(|item| match item {
            ArchItem::Wcet {
                task: t,
                host,
                ticks,
                ..
            } if kind_wcet && *t == task && host == host_name => Some(*ticks),
            ArchItem::Wctt {
                task: t,
                host,
                ticks,
                ..
            } if !kind_wcet && *t == task && host == host_name => Some(*ticks),
            _ => None,
        })
    };
    let free: Vec<String> = program
        .arch
        .iter()
        .filter_map(|item| match item {
            ArchItem::Host { name, .. } if !hosts.contains(name) => Some(name.clone()),
            _ => None,
        })
        .filter(|h| timed(true, h).is_some() && timed(false, h).is_some())
        .collect();
    let host = if free.is_empty() {
        let home = hosts[0].clone();
        let (wcet, wctt) = (
            timed(true, &home).unwrap_or(1),
            timed(false, &home).unwrap_or(1),
        );
        let name = format!("x{tag}");
        let last_host = program
            .arch
            .iter()
            .rposition(|item| matches!(item, ArchItem::Host { .. }))
            .expect("family specs declare hosts");
        let span = Default::default();
        program.arch.insert(
            last_host + 1,
            ArchItem::Host {
                name: name.clone(),
                reliability: 0.999,
                span,
            },
        );
        program.arch.push(ArchItem::Wcet {
            task: task.clone(),
            host: name.clone(),
            ticks: wcet,
            span,
        });
        program.arch.push(ArchItem::Wctt {
            task: task.clone(),
            host: name.clone(),
            ticks: wctt,
            span,
        });
        name
    } else {
        free[rng.below(free.len())].clone()
    };
    if let MapItem::Assign { hosts, .. } = &mut program.map[at] {
        hosts.push(host);
    }
}

/// Warm-up jobs for `edit_resubmit`: each family spec once, unedited,
/// under a name no stream job uses.
#[must_use]
pub fn edit_warmup() -> Vec<JobSpec> {
    edit_family()
        .into_iter()
        .map(|base| {
            let mut program = base.program;
            program.name = format!("{}_warm", program.name);
            JobSpec {
                spec: logrel_lang::print_program(&program),
                scenario: "scn v2\n".to_owned(),
                rounds: 20,
                replications: 1,
                seed: 1,
                lanes: LaneMode::Auto,
            }
        })
        .collect()
}

/// A case study of the campaign workloads.
struct CaseStudy {
    source: &'static str,
    hosts: Vec<String>,
    round_period: u64,
    shipped: Vec<&'static str>,
}

fn case_studies() -> Vec<CaseStudy> {
    [STEER_BY_WIRE, THREE_TANK, INFUSION_PUMP]
        .into_iter()
        .map(|source| {
            let program = parse(source);
            let hosts = program
                .arch
                .iter()
                .filter_map(|item| match item {
                    ArchItem::Host { name, .. } => Some(name.clone()),
                    _ => None,
                })
                .collect();
            let round_period = program
                .modules
                .iter()
                .flat_map(|m| m.modes.iter())
                .map(|mode| mode.period)
                .max()
                .expect("case studies declare modes");
            let mut shipped = vec![BURST_SCENARIO];
            if source == INFUSION_PUMP {
                shipped.extend(PUMP_SCENARIOS);
            }
            CaseStudy {
                source,
                hosts,
                round_period,
                shipped,
            }
        })
        .collect()
}

/// A seeded timeline of correlated events over a horizon of `horizon`
/// ticks. `kind` picks the event pair, so a block covers all four.
fn correlated_timeline(study: &CaseStudy, kind: usize, horizon: u64, rng: &mut Rng) -> String {
    let window = |rng: &mut Rng| {
        let from = (rng.unit() * 0.5 * horizon as f64) as u64;
        let len = ((0.1 + 0.4 * rng.unit()) * horizon as f64) as u64;
        (from, from + len.max(1))
    };
    let mut hosts = study.hosts.clone();
    rng.shuffle(&mut hosts);
    let mut out = String::from("scn v2\n");
    let (f, u) = window(rng);
    match kind % 4 {
        0 => out.push_str(&format!(
            "common hosts={},{} from={f} until={u} p={:.3}\n",
            hosts[0],
            hosts[1],
            0.01 + 0.04 * rng.unit()
        )),
        1 => out.push_str(&format!(
            "partition hosts={} from={f} until={u}\n",
            hosts[0]
        )),
        2 => out.push_str(&format!(
            "wearout host={} from={f} until={u} shape=2 scale={}\n",
            hosts[0],
            (u - f).max(2) / 2
        )),
        _ => out.push_str(&format!(
            "adversary from={f} until={u} hold={}\n",
            1 + study.round_period * (1 + rng.below(4) as u64)
        )),
    }
    let (f, u) = window(rng);
    out.push_str(&format!(
        "common hosts={},{} from={f} until={u} p=0.02\n",
        hosts[1], hosts[2]
    ));
    out
}

/// The (replications, rounds) strata of `campaign_wide`: roughly equal
/// work each, one with a non-multiple-of-64 tail.
const WIDE_SIZES: [(u64, u64); 4] = [(128, 2000), (192, 1500), (200, 1300), (256, 1000)];

/// The (lanes, replications, rounds) strata of `campaign_narrow`;
/// `None` lanes means a lane width from [`NARROW_WIDTHS`].
const NARROW_SIZES: [(Option<LaneMode>, u64, u64); 4] = [
    (Some(LaneMode::Off), 4, 20_000),
    (Some(LaneMode::Off), 8, 10_000),
    (None, 8, 10_000),
    (None, 5, 16_000),
];

/// The widths of the bit-sliced `campaign_narrow` strata: each block
/// uses all six, rotated over (case study, stratum) from block to block.
const NARROW_WIDTHS: [u8; 6] = [2, 3, 4, 5, 6, 8];

/// Warm-up jobs for the campaign workloads: one small campaign per case
/// study, which compiles and caches it.
#[must_use]
pub fn campaign_warmup() -> Vec<JobSpec> {
    case_studies()
        .into_iter()
        .map(|study| JobSpec {
            spec: study.source.to_owned(),
            scenario: BURST_SCENARIO.to_owned(),
            rounds: 100,
            replications: 64,
            seed: 1,
            lanes: LaneMode::Auto,
        })
        .collect()
}

/// The warm-up jobs of `workload`.
#[must_use]
pub fn warmup(workload: Workload) -> Vec<JobSpec> {
    match workload {
        Workload::EditResubmit => edit_warmup(),
        _ => campaign_warmup(),
    }
}

/// Strata per block of a campaign stream: case study × size.
const CAMPAIGN_BLOCK: usize = 12;
/// Sessions per block of the edit stream: one per family spec.
const EDIT_BLOCK: usize = 5;

/// An index-addressable job stream: job `i` is a pure function of
/// `(workload, seed, i)`, so clients can render requests on demand and
/// any job can be regenerated for checking.
pub struct Generator {
    workload: Workload,
    seed: u64,
    family: Vec<Base>,
    studies: Vec<CaseStudy>,
}

impl Generator {
    /// The stream of `workload` for `seed`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Generator {
        let (family, studies) = match workload {
            Workload::EditResubmit => (edit_family(), Vec::new()),
            _ => (Vec::new(), case_studies()),
        };
        Generator {
            workload,
            seed,
            family,
            studies,
        }
    }

    /// A generator keyed by the stream seed, `salt` and `x`.
    fn rng(&self, salt: u64, x: u64) -> Rng {
        Rng::new(Rng::new(self.seed ^ salt).next_u64() ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Job `index` of the stream.
    #[must_use]
    pub fn job(&self, index: usize) -> JobSpec {
        match self.workload {
            Workload::EditResubmit => self.edit_job(index),
            _ => self.campaign_job(index),
        }
    }

    /// Job `index` as a request line with id `j<index>`.
    #[must_use]
    pub fn request(&self, index: usize) -> String {
        self.job(index).request_line(&format!("j{index}"))
    }

    /// Edit sessions of [`SESSION_LEN`] cumulative edits, each on one
    /// family spec; the family is covered once per block of
    /// [`EDIT_BLOCK`] sessions in a seeded order. Programs are renamed
    /// per session and fresh names carry the job index, so no two jobs
    /// of a stream share a spec text.
    fn edit_job(&self, index: usize) -> JobSpec {
        let session = index / SESSION_LEN;
        let mut order: Vec<usize> = (0..self.family.len()).collect();
        self.rng(1, (session / EDIT_BLOCK) as u64)
            .shuffle(&mut order);
        let base = &self.family[order[session % EDIT_BLOCK]];
        let mut program = base.program.clone();
        program.name = format!("{}_s{session}", program.name);
        let mut rng = self.rng(2, session as u64);
        for step in 1..=index % SESSION_LEN {
            apply_edit(
                &mut program,
                Edit::draw(&mut rng),
                session * SESSION_LEN + step,
                &mut rng,
            );
        }
        JobSpec {
            spec: logrel_lang::print_program(&program),
            scenario: format!(
                "scn v2\nflaky host={} from=0 until=1000000 up=0.95\n",
                base.host
            ),
            rounds: 20,
            replications: 1,
            seed: self.rng(3, index as u64).next_u64(),
            lanes: LaneMode::Auto,
        }
    }

    /// Blocks of every (case study, size) stratum in a seeded order; each
    /// job gets a shipped scenario or a correlated timeline (alternating
    /// per stratum and block) and its own campaign seed.
    fn campaign_job(&self, index: usize) -> JobSpec {
        let block = index / CAMPAIGN_BLOCK;
        let mut strata: Vec<(usize, usize)> = (0..self.studies.len())
            .flat_map(|s| (0..4).map(move |k| (s, k)))
            .collect();
        self.rng(4, block as u64).shuffle(&mut strata);
        let (s, k) = strata[index % CAMPAIGN_BLOCK];
        let study = &self.studies[s];
        let mut rng = self.rng(5, index as u64);
        let (lanes, replications, rounds) = if self.workload == Workload::CampaignWide {
            let (reps, rounds) = WIDE_SIZES[k];
            (LaneMode::Auto, reps, rounds)
        } else {
            let (lanes, reps, rounds) = NARROW_SIZES[k];
            let width = NARROW_WIDTHS[(2 * s + k + block) % NARROW_WIDTHS.len()];
            (lanes.unwrap_or(LaneMode::Width(width)), reps, rounds)
        };
        // What a stratum runs, timeline windows included, is a function of
        // the block alone; the seed decides the order within each block
        // and the campaign seeds. The work in a run's window then does
        // not depend on the seed.
        let scenario = if (k + block).is_multiple_of(2) {
            study.shipped[(s + k + block / 2) % study.shipped.len()].to_owned()
        } else {
            let mut windows = Rng::new(((s * 4 + k) as u64) << 32 | block as u64);
            correlated_timeline(
                study,
                k + block / 2,
                rounds * study.round_period,
                &mut windows,
            )
        };
        JobSpec {
            spec: study.source.to_owned(),
            scenario,
            rounds,
            replications,
            seed: rng.next_u64(),
            lanes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Symbols;
    use logrel_sim::{Scenario, Simulation};

    /// Jobs checked per workload: whole blocks, so every stratum and
    /// every family spec is covered.
    fn checked_jobs(workload: Workload) -> usize {
        match workload {
            Workload::EditResubmit => 2 * EDIT_BLOCK * SESSION_LEN,
            _ => 2 * CAMPAIGN_BLOCK,
        }
    }

    #[test]
    fn same_seed_gives_a_byte_identical_request_stream() {
        for workload in Workload::ALL {
            let n = checked_jobs(workload);
            let a: Vec<String> = (0..n)
                .map(|i| Generator::new(workload, 7).request(i))
                .collect();
            let g = Generator::new(workload, 7);
            let b: Vec<String> = (0..n).map(|i| g.request(i)).collect();
            assert_eq!(a, b, "{}", workload.name());
            let c: Vec<String> = (0..n)
                .map(|i| Generator::new(workload, 8).request(i))
                .collect();
            assert_ne!(a, c, "{}: seeds must matter", workload.name());
        }
    }

    fn assert_valid(job: &JobSpec, what: &str) {
        let outcome =
            logrel_query::analyze_source(&job.spec, what, None, &mut logrel_obs::NoopSink);
        assert_eq!(
            outcome.errors, 0,
            "{what}: analysis errors:\n{}\n{}",
            outcome.stderr, job.spec
        );
        let sys = logrel_lang::compile(&job.spec).unwrap_or_else(|e| panic!("{what}: {e}"));
        let scenario = Scenario::parse_with(&job.scenario, &Symbols(&sys))
            .unwrap_or_else(|e| panic!("{what}: scenario: {e}\n{}", job.scenario));
        scenario
            .check_bounds(sys.arch.host_count(), sys.spec.communicator_count())
            .unwrap_or_else(|e| panic!("{what}: scenario bounds: {e}"));
        let td = logrel_core::TimeDependentImplementation::from(sys.imp.clone());
        assert!(
            Simulation::try_new(&sys.spec, &sys.arch, &td).is_ok(),
            "{what}"
        );
        assert!(job.replications >= 1 && job.rounds >= 1, "{what}");
        assert!((1..=64).contains(&job.lanes.width()), "{what}");
    }

    #[test]
    fn every_generated_spec_and_scenario_is_valid() {
        for workload in Workload::ALL {
            for (k, job) in warmup(workload).iter().enumerate() {
                assert_valid(job, &format!("{} warm-up {k}", workload.name()));
            }
            for seed in [1, 2] {
                let g = Generator::new(workload, seed);
                for i in 0..checked_jobs(workload) {
                    assert_valid(
                        &g.job(i),
                        &format!("{} seed {seed} job {i}", workload.name()),
                    );
                }
            }
        }
    }

    #[test]
    fn edit_jobs_are_distinct_and_cover_every_edit_kind() {
        let g = Generator::new(Workload::EditResubmit, 3);
        let n = 4 * EDIT_BLOCK * SESSION_LEN;
        let mut specs: Vec<String> = (0..n).map(|i| g.job(i).spec).collect();
        specs.extend(warmup(Workload::EditResubmit).into_iter().map(|j| j.spec));
        let total = specs.len();
        specs.sort();
        specs.dedup();
        assert_eq!(specs.len(), total, "every job must miss the compile cache");
        let mut rng = Rng::new(3);
        let mut seen = Vec::new();
        for tag in 0..200 {
            let mut program = parse(&uniform_spec(16));
            let kind = apply_edit(&mut program, Edit::draw(&mut rng), tag, &mut rng);
            if !seen.contains(&kind) {
                seen.push(kind);
            }
        }
        assert_eq!(seen.len(), 4, "{seen:?}");
    }

    #[test]
    fn campaign_blocks_cover_every_stratum_once() {
        for workload in [Workload::CampaignWide, Workload::CampaignNarrow] {
            let g = Generator::new(workload, 11);
            let mut block: Vec<(String, u64, u64, bool)> = (0..CAMPAIGN_BLOCK)
                .map(|i| {
                    let j = g.job(CAMPAIGN_BLOCK + i);
                    (j.spec, j.replications, j.rounds, j.lanes == LaneMode::Off)
                })
                .collect();
            block.sort();
            block.dedup();
            assert_eq!(block.len(), CAMPAIGN_BLOCK, "{}", workload.name());
        }
        let g = Generator::new(Workload::CampaignWide, 11);
        assert!((0..CAMPAIGN_BLOCK).any(|i| !g.job(i).replications.is_multiple_of(64)));
        let g = Generator::new(Workload::CampaignNarrow, 11);
        let lanes: Vec<LaneMode> = (0..CAMPAIGN_BLOCK).map(|i| g.job(i).lanes).collect();
        assert!(lanes.contains(&LaneMode::Off));
        assert!(lanes.iter().any(|l| matches!(l, LaneMode::Width(2..=8))));
    }
}

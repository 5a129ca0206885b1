(** Simulator-throughput harness (`bench --perf`).

    Times [reps] repeated timing-model runs ({!Braid_uarch.Pipeline.run})
    of a fixed benchmark subset on each of the three core models
    (in-order / ooo / braid) and reports simulated cycles per wall-clock
    second. Preparation (workload generation, compilation, emulation) is
    memoised outside the timed region, so the numbers isolate the
    cycle-level simulation hot path.

    Each synthetic benchmark additionally yields ["emu:NAME"] rows timing
    the functional emulators (interpreter, a full traced run,
    compiled fast-forward — the sampled-simulation speedup base) and
    ["sample:NAME"] rows timing sampled simulation itself, carrying the
    sampled-vs-full IPC error. RV fixtures add ["rvemu:FIXTURE"] rows
    (interpreter vs threaded-code fast path).

    Results serialize to the BENCH_*.json trajectory format
    (["braidsim-perf/2"]): re-run the harness in a new tree and pass the
    old file as [baseline] to get per-entry ["speedup_vs_baseline"]
    ratios. *)

type sample_info = {
  ipc_full : float;  (** IPC of the full simulation just timed *)
  ipc_sampled : float;  (** the sampled estimate *)
  ipc_error : float;  (** |sampled - full| / full *)
}

type entry = {
  bench : string;
      (** workload name, or a prefixed row kind: ["emu:NAME"],
          ["sample:NAME"], ["rv:NAME"], ["rvemu:FIXTURE"] *)
  core : string;
      (** "in-order" | "ooo" | "braid"; emulator rows use engine names
          ("emu-interp", "emu-compiled", "rv-interp", ...); rv: fixtures
          add a "frontend" row whose timed region is the RV decode+lower
          pass itself *)
  scale : int;
      (** the dynamic-length target this row really ran at; 0 for
          fixed-size RV fixtures, where scale does not apply *)
  instructions : int;
  cycles : int;  (** simulated cycles of one run; 0 on emulator rows *)
  reps : int;
  wall_s : float;  (** wall-clock total for all [reps] timed runs *)
  sample : sample_info option;  (** ["sample:"] rows only *)
}

val sim_cycles_per_s : entry -> float
val sim_instrs_per_s : entry -> float

val rv_benches : string list
(** The RV32IM fixtures tracked by default: ["rv:fib"; "rv:crc32"]. *)

val is_rv : string -> bool
(** True for ["rv:NAME"] bench names. *)

val default_benches : string list
(** Six stand-ins spanning the simulator's behaviours (3 int + 3 fp),
    plus {!rv_benches}. *)

val measure :
  Suite.ctx -> scale:int -> reps:int -> benches:string list -> entry list
(** Entries in benchmark-major order. Each synthetic benchmark yields the
    three pipeline rows, three ["emu:NAME"] rows and three
    ["sample:NAME"] rows (measured with {!Braid_sample.Spec.default}
    against the full results just timed). Pipeline and sampled rows
    perform one untimed warm-up run, then [reps] timed runs; competing
    emulator engines are timed interleaved and report their best rep.
    An ["rv:NAME"] bench names a {!Braid_rv.Fixtures} program and yields
    a "frontend" row timing the decode+translate pass, two ["rvemu:"]
    rows when the fixture runs at least 10k dynamic instructions, then
    the three cores on the translated program ([scale] does not apply —
    fixtures are fixed-size). Raises
    [Not_found] on an unknown benchmark or fixture name and
    [Invalid_argument] when [reps <= 0]. *)

type baseline

val load_baseline : string -> baseline
(** Parse a previous BENCH_*.json (with {!Json}); accepts schemas
    ["braidsim-perf/1"] and ["braidsim-perf/2"]; fails on malformed
    documents or other schemas. *)

val to_json : ?baseline:baseline -> scale:int -> reps:int -> entry list -> string
(** The BENCH_*.json document: schema tag, parameters, per-entry rows
    (scale, cycles, wall-clock, simulated cycles/s, sampling error when
    present and, when a [baseline] is given, ["speedup_vs_baseline"]),
    and aggregate totals. *)

val write_json :
  ?baseline:baseline -> file:string -> scale:int -> reps:int -> entry list -> unit
(** [to_json] written to [file]; ["-"] writes to stdout. *)

val render : entry list -> string
(** Plain-text table of the same rows, for the terminal. *)

(** Prepared programs: a program and its memory image, both compiled
    binaries (conventional and braid), their execution traces and the
    simulations run on them — memoised in an explicit {!ctx}, since every
    experiment sweeps the same 26 programs.

    This is the one preparation path. Workloads come from
    {!Braid_workload.Spec.generate} through {!prepare}; a program from any
    other frontend (RV32IM) enters through {!prepare_program}. The
    binary a configuration runs follows from its kind
    ({!Braid_uarch.Config.Core_kind.binary}).

    A [ctx] is safe to share across domains: lookups and insertions are
    mutex-guarded, and a cache miss runs the (deterministic) computation
    outside the lock so simulations overlap. A second domain asking for a
    key in flight waits for it, so every caller observes one canonical
    value.

    A ctx optionally carries a sampling spec: {!run} on a sampling ctx
    returns SimPoint-style sampled results extrapolated to full-run shape
    instead of simulating every instruction, and full traces are never
    materialised unless something forces them. *)

type prepared = {
  init_mem : (int * int64) list;
  warm_data : int list;  (** addresses of the initial data image *)
  virtual_ir : Program.t;
  conventional : Braid_core.Extalloc.result;
  braid : Braid_core.Transform.report;
  max_steps : int;  (** dynamic-instruction bound of every emulation *)
  key : string;
      (** content key: a digest of the program, the memory image and the
          preparation parameters *)
}

type ctx
(** Memoisation context: workloads, preparations, traces and simulation
    results. Create one per experiment batch (or per request) and thread
    it through explicitly — there is no global mutable cache. *)

val create_ctx : ?sample:Braid_sample.Spec.t -> unit -> ctx
(** With [sample], every {!run} call on this ctx uses sampled simulation
    with that spec. *)

val sampling : ctx -> Braid_sample.Spec.t option

val default_scale : int
(** 12_000 unless the BRAID_SCALE environment variable overrides it.
    A malformed override is reported on stderr and ignored. *)

val prepare_program :
  ctx -> init_mem:(int * int64) list -> Program.t -> prepared
(** Compiles a virtual-register program both ways with the default
    budgets; every trace and sampling plan of it is bounded by
    {!Emulator.run}'s own 1_000_000 steps. Memoised on the content key. *)

val prepare :
  ctx ->
  ?seed:int ->
  ?scale:int ->
  ?max_internal:int ->
  ?ext_usable:int ->
  Braid_workload.Spec.profile ->
  prepared
(** Generates the benchmark (memoised on name, seed and [scale], the
    dynamic-length target of the MinneSPEC-style reduced run) and
    prepares it with [max_steps = 50 * scale]. *)

val trace : ctx -> prepared -> Braid_uarch.Config.core_kind -> Trace.t
(** Full execution trace of the binary a core of this kind runs;
    memoised per binary, so every kind sharing a binary shares the
    trace. *)

val run :
  ctx -> prepared -> Braid_uarch.Config.t -> Braid_uarch.Pipeline.result
(** Times the configuration on its kind's binary. On a sampling ctx this
    is the sampled estimate's extrapolated result
    ({!Braid_sample.Driver.t}). Memoised on the preparation's key, the
    binary, and the configuration's name and {!Braid_uarch.Config.digest};
    a hit never forces the trace. *)

val plan :
  ctx ->
  prepared ->
  spec:Braid_sample.Spec.t ->
  Braid_uarch.Config.core_kind ->
  Braid_sample.Driver.plan
(** The core-independent sampling plan (fast-forward, interval profile,
    clustering) of the kind's binary; memoised per binary and spec. *)

val sample :
  ctx ->
  prepared ->
  spec:Braid_sample.Spec.t ->
  Braid_uarch.Config.t ->
  Braid_sample.Driver.t
(** Sampled simulation with full detail (representatives, weights,
    per-interval IPCs) regardless of the ctx's own sampling mode.
    Memoised like {!run}, plus the spec. *)

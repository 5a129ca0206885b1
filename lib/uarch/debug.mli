(** Microarchitectural invariant monitor and commit recorder.

    A debug sink follows the same zero-cost discipline as {!Obs.Sink.t}:
    the default value {!off} is [None], every hook pattern-matches it away
    in one branch, and simulation results are byte-identical when the sink
    is off because the hooks only observe machine state, never mutate it.

    When enabled the sink records the committed instruction stream (uids
    and PCs, for the differential oracle) and — when [invariants] is set —
    checks the structural properties §3–§4 of the paper rely on:

    - ["commit.order"]: instructions commit in strict fetch order (the
      global BEU-FIFO commit discipline);
    - ["extfile.capacity"] / ["extfile.double-release"]: the number of
      in-flight external values never exceeds [ext_regs] and releases
      balance allocations (busy-bit consistency);
    - ["internal.rf-capacity"] / ["internal.rf-range"]: at most
      {!Reg.num_internal} live internal values per BEU, all with indices
      inside the 8-entry file;
    - ["internal.cross-beu"] / ["internal.cross-braid"]: an internal value
      is only ever consumed inside the braid (and on the BEU) that
      produced it;
    - ["bypass.internal"]: only external (E-bit) results ride the bypass
      network;
    - ["bits.*"]: the S/T/I/E bits carried on each fetched trace event
      agree with the instruction encoding, and conventional binaries carry
      no internal registers;
    - ["wakeup.premature"]: no instruction issues before all producers
      have issued and their values are visible;
    - ["beu.window"]: an in-order BEU never issues from beyond the
      [sched_window]-entry head of its FIFO;
    - ["cgooo.block-order"]: a CG-OoO block window issues strictly in
      dispatch order — uids leaving one window only ever increase. *)

type violation = {
  invariant : string;  (** dotted invariant name, e.g. ["commit.order"] *)
  cycle : int;
  uid : int;  (** instruction (trace uid) the violation was observed on *)
  detail : string;
}

type t
(** [None]-like when off; created per pipeline run, not shared. *)

val off : t
(** The default sink: all hooks are no-ops and cost one pattern match. *)

val create : ?invariants:bool -> Config.t -> t
(** A live sink. Always records the committed stream; checks invariants
    only when [invariants] (default [true]). *)

val enabled : t -> bool

val checking : t -> bool
(** [true] only for a live sink created with invariant checking on. Guard
    any non-trivial checking work with this. *)

val report : t -> invariant:string -> cycle:int -> uid:int -> string -> unit
(** Record a violation (no-op when off). Only the first 200 violations keep
    their details; the total count is always exact. *)

val violations : t -> violation list
val violation_count : t -> int

val committed : t -> int array
(** Uids in commit order. *)

val committed_pcs : t -> int array
(** PCs in commit order (parallel to {!committed}). *)

val pp_violation : Format.formatter -> violation -> unit

(** {2 Hooks} — called by [Machine]/[Pipeline]/[Exec_core] with the
    trace and the uid of the entry concerned. *)

val on_fetch : t -> cycle:int -> Trace.t -> int -> unit
(** S/T/I/E bit consistency at fetch. *)

val on_dispatch : t -> cycle:int -> beu:int -> Trace.t -> int -> unit
(** External-file allocation; clears the BEU's internal live-set on an
    S-bit instruction. *)

val on_ext_release : t -> cycle:int -> uid:int -> unit
(** An external register returned to the free list (early release or
    commit). *)

val on_issue :
  t -> cycle:int -> beu:int -> bypassed:bool -> Trace.t -> int -> unit
(** Bypass legality and internal-RF occupancy at issue. *)

val on_commit : t -> cycle:int -> Trace.t -> int -> unit
(** Records the committed uid/PC and checks global commit order. *)

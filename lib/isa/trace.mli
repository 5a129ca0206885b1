(** Dynamic instruction traces.

    The timing simulators are execution-driven: the emulator runs the
    program for real and records one entry per retired instruction, with
    true register data dependences already resolved to producer uids
    (register renaming makes false dependences irrelevant to timing; memory
    dependences are resolved by the LSQ model from the recorded
    addresses).

    The layout is struct-of-arrays over a static instruction table. As in
    the braid ISA, where the S/T/I/E bits and the internal/external split
    are written into each instruction's encoding, every fact that is fixed
    per static instruction (pc, block and offset, latency, instruction
    class, register-file traffic, braid membership) lives once in a
    per-program {!static} table indexed by the flat instruction index
    [pc / 4]. A dynamic entry [u] (its uid, dense from 0) stores only its
    static index, its memory address and a byte of dynamic bits; its
    register producers are stored once, in CSR form. Every execution
    trace comes from one function, [Emulator.Compiled.trace_window];
    {!of_steps} builds one by hand for tests. *)

(** Per-program static instruction table, indexed by the flat instruction
    index ([pc / 4], i.e. [Program.block_base block + offset]). Built once
    per program ({!static_of}); read-only. *)
type static = {
  s_instr : Instr.t array;
  s_block : int array;
  s_offset : int array;  (** position within the block *)
  s_latency : int array;  (** FU latency, memory time excluded *)
  s_flags : int array;  (** [flag_*] bits *)
  s_ext_reads : int array;  (** external register file reads requested *)
  s_int_reads : int array;  (** braid-internal register file reads *)
  s_braid : int array;  (** braid id, -1 outside any braid *)
}

val flag_load : int
val flag_store : int
val flag_cond_branch : int
val flag_jump : int

val flag_writes_ext : int
(** Allocates an external register / rename entry (the E bit). *)

val flag_writes_int : int
(** Writes a braid-internal register (the I bit). *)

val flag_braid_start : int
(** The S bit. A dynamic entry's braid start is {!bit_braid_start}. *)

val static_of : Program.t -> static

(** Dynamic bits of one entry. *)

val bit_taken : int
(** Conditional branches: outcome; jumps: always set. *)

val bit_fault : int
(** An arithmetic fault occurred (exception-mode trigger). *)

val bit_braid_start : int
(** The entry opens a braid: its S bit, or the first braid entry of a
    window that opened mid-braid (see [Emulator.Compiled.trace_window]). *)

type stop_reason = Halted | Steps_exhausted

(** Static, trace-derived consumer tables, shared by every timing run over
    one trace (all arrays are read-only for consumers). *)
type dep_tables = {
  child_off : int array;
      (** CSR offsets: the consumers of producer [p] are
          [child_uid.(child_off.(p)) .. child_uid.(child_off.(p+1)-1)] *)
  child_uid : int array;
  child_via : Bytes.t;  (** ['\001'] = braid-internal register edge *)
  last_ext_reader : int array;
      (** highest consumer uid reading the value externally, -1 = none *)
  conflict_store : int array;
      (** for a load: uid of the youngest older store to the same
          address, -1 = none (LSQ disambiguation is static in a trace) *)
}

type t = {
  program : Program.t;
  static : static;  (** [static_of program], shared by its traces *)
  sidx : int array;  (** static index per entry *)
  addr : int array;  (** byte address for loads/stores, -1 otherwise *)
  bits : Bytes.t;  (** [bit_*] per entry *)
  dep_off : int array;
      (** CSR offsets (length + 1 entries): the register producers of [u]
          are [dep_uid.(dep_off.(u)) .. dep_uid.(dep_off.(u+1)-1)], in
          ascending (uid, via) order *)
  dep_uid : int array;
  dep_via : Bytes.t;
      (** ['\001'] = the value flows through a braid-internal register
          (same BEU, never on the bypass network or external file) *)
  next_ip : int;
      (** static index execution resumes at after the last entry, -1 once
          halted *)
  stop : stop_reason;
  mutable warm_lines : int array option;
      (** memoised {!warm_lines} result; construct with [None] *)
  mutable tables : dep_tables option;
      (** memoised {!dep_tables} result; construct with [None] *)
}

val length : t -> int

(** {2 Per-entry accessors} *)

val pc : t -> int -> int
val block_id : t -> int -> int
val offset : t -> int -> int
val instr : t -> int -> Instr.t
val latency : t -> int -> int
val addr : t -> int -> int
val is_load : t -> int -> bool
val is_store : t -> int -> bool
val is_cond_branch : t -> int -> bool

val is_branch : t -> int -> bool
(** [is_cond_branch || is_jump]. *)

val writes_ext : t -> int -> bool
val writes_int : t -> int -> bool
val ext_src_reads : t -> int -> int
val int_src_reads : t -> int -> int
val braid_id : t -> int -> int
val braid_start : t -> int -> bool
val taken : t -> int -> bool
val faulting : t -> int -> bool

val next_pc : t -> int -> int
(** Address of the next dynamic instruction (the entry's own pc after a
    final [Halt]). *)

val iter_deps : t -> int -> (int -> bool -> unit) -> unit
(** [iter_deps t u f] calls [f producer via_internal] for each register
    producer of [u], in ascending (uid, via) order. *)

val deps : t -> int -> (int * bool) list
(** The producers {!iter_deps} visits, as a list. *)

val of_steps : Program.t -> (int * int * (int * bool) list) array -> t
(** [of_steps program steps] builds a halted trace by hand: step [u] is
    [(static index, address, producers)]. Dynamic bits are clear except
    the static S bit. For tests that need a trace no execution produces. *)

val warm_lines : t -> int array
(** Distinct 64-byte instruction-line addresses in first-touch order,
    computed once and memoised (the trace is immutable): repeated timing
    runs over one trace — the perf harness — warm their caches without
    re-deduplicating the entries. *)

val dep_tables : t -> dep_tables
(** The consumer side of the dependence graph, computed once from the
    producer CSR and memoised. Timing models treat every array as
    read-only, so repeated runs (the perf harness) share one copy instead
    of rebuilding it per run. *)

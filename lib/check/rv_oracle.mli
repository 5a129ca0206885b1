(** Differential oracle for the RV32IM frontend.

    Two independent executions of the same image — the RV reference
    emulator ({!Braid_rv.Emu}) on the raw words, and {!Emulator} on the
    translated IR — must end in the same architectural state: identical
    x1..x31 and identical memory image (compared in RV address space).
    The translated program is then handed to {!Oracle.check}, so every
    committed fixture also exercises both compilers and every timing
    core. Frontend findings:

    - ["rv-stop"] / ["ir-stop"]: an execution did not reach a clean halt
      (reference fault, IR step budget). A reference that exhausts its
      step budget yields exactly one ["rv-stop"] finding marked
      inconclusive, and nothing is compared: the two runs would stop at
      different points of the program;
    - ["reg"]: a final xN differs between reference and translated runs;
    - ["memory"]: the final memory images differ. *)

type finding = { kind : string; detail : string }

type report = {
  name : string;
  rv_dynamic : int;  (** RV instructions retired by the reference *)
  ir_dynamic : int;  (** IR instructions retired by the translated run *)
  output : string;  (** HTIF putchar stream from the reference run *)
  exit_code : int option;  (** reference exit code, when it exited *)
  findings : finding list;  (** frontend-level divergences *)
  core : Oracle.report;  (** compiler + timing-core differential *)
}

val ok : report -> bool
(** No frontend finding, no core-level divergence or violation. *)

val check :
  ?cores:Braid_uarch.Config.core_kind list ->
  ?max_steps:int ->
  Braid_rv.Image.t ->
  (report, Braid_rv.Translate.error) result
(** [max_steps] bounds the reference run (default 1_000_000; the IR runs,
    here and in {!Oracle.check}, get 16x that to absorb lowering
    expansion). Returns [Error] only when the image does not translate. *)

val render : report -> string
(** Multi-line human-readable summary (frontend findings first, then the
    core-level report when it fails). *)

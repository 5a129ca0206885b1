(* Invariant monitor behind a default-off sink (see debug.mli). The [t =
   state option] representation keeps the disabled path to a single
   pattern match per hook, mirroring Obs.Sink. *)

type violation = {
  invariant : string;
  cycle : int;
  uid : int;
  detail : string;
}

type state = {
  cfg : Config.t;
  invariants : bool;
  mutable ext_alloc : int;  (* in-flight external-file allocations *)
  mutable last_commit_uid : int;
  mutable commit_uid : int array;
  mutable commit_pc : int array;
  mutable commits : int;
  mutable violations_rev : violation list;
  mutable violation_count : int;
  live_internal : (int, unit) Hashtbl.t array;
      (* per-BEU (or per-block-window) live internal-register indices;
         empty array for conventional cores (no internal file to track) *)
  last_issue_uid : int array;
      (* cgooo: last uid issued from each block window (-1 = none); issue
         within a window must be strictly in dispatch order *)
}

type t = state option

let max_recorded = 200
let off = None

let create ?(invariants = true) (cfg : Config.t) =
  let beus =
    match cfg.Config.kind with
    | Config.Braid_exec -> max 1 cfg.Config.clusters
    | Config.Cgooo -> max 1 cfg.Config.block_windows
    | _ -> 0
  in
  let windows =
    match cfg.Config.kind with
    | Config.Cgooo -> max 1 cfg.Config.block_windows
    | _ -> 0
  in
  Some
    {
      cfg;
      invariants;
      ext_alloc = 0;
      last_commit_uid = -1;
      commit_uid = Array.make 1024 0;
      commit_pc = Array.make 1024 0;
      commits = 0;
      violations_rev = [];
      violation_count = 0;
      live_internal = Array.init beus (fun _ -> Hashtbl.create 16);
      last_issue_uid = Array.make windows (-1);
    }

let enabled = function None -> false | Some _ -> true
let checking = function None -> false | Some s -> s.invariants

let report t ~invariant ~cycle ~uid detail =
  match t with
  | None -> ()
  | Some s ->
      s.violation_count <- s.violation_count + 1;
      if s.violation_count <= max_recorded then
        s.violations_rev <- { invariant; cycle; uid; detail } :: s.violations_rev

let violations = function None -> [] | Some s -> List.rev s.violations_rev
let violation_count = function None -> 0 | Some s -> s.violation_count
let committed = function None -> [||] | Some s -> Array.sub s.commit_uid 0 s.commits
let committed_pcs = function None -> [||] | Some s -> Array.sub s.commit_pc 0 s.commits

let pp_violation fmt v =
  Format.fprintf fmt "[%s] cycle %d, instr %d: %s" v.invariant v.cycle v.uid
    v.detail

(* ------------------------------------------------------------------ *)
(* Hooks                                                               *)
(* ------------------------------------------------------------------ *)

let internal_reads (ins : Instr.t) =
  List.fold_left
    (fun n (r : Reg.t) -> if r.Reg.space = Reg.Intern then n + 1 else n)
    0 (Instr.uses ins)

let on_fetch t ~cycle tr uid =
  match t with
  | None -> ()
  | Some s when not s.invariants -> ()
  | Some s ->
      let ins = Trace.instr tr uid in
      let bad invariant detail = report t ~invariant ~cycle ~uid detail in
      if Trace.writes_int tr uid <> Instr.writes_internal ins then
        bad "bits.I" "writes_int flag disagrees with the instruction's I bit";
      if Trace.writes_ext tr uid <> Instr.writes_external ins then
        bad "bits.E" "writes_ext flag disagrees with the instruction's E bit";
      if Trace.braid_start tr uid <> ins.Instr.annot.Instr.braid_start then
        bad "bits.S" "braid_start flag disagrees with the instruction's S bit";
      if Trace.ext_src_reads tr uid <> Instr.reads_external_count ins then
        bad "bits.T" "external source count disagrees with the T bits";
      let int_reads = internal_reads ins in
      if Trace.int_src_reads tr uid <> int_reads then
        bad "bits.T" "internal source count disagrees with the T bits";
      (match Config.Core_kind.binary s.cfg.Config.kind with
      | `Braid ->
          if Trace.braid_start tr uid && Trace.braid_id tr uid < 0 then
            bad "bits.S" "S bit set on an instruction outside any braid"
      | `Conv ->
          if Trace.writes_int tr uid || int_reads > 0 then
            bad "bits.internal"
              "internal register reached a conventional (non-braid) binary")

let on_dispatch t ~cycle ~beu tr uid =
  match t with
  | None -> ()
  | Some s ->
      if Trace.writes_ext tr uid then begin
        s.ext_alloc <- s.ext_alloc + 1;
        if s.invariants && s.ext_alloc > s.cfg.Config.ext_regs then
          report t ~invariant:"extfile.capacity" ~cycle ~uid
            (Printf.sprintf
               "%d in-flight external values exceed the %d-entry file"
               s.ext_alloc s.cfg.Config.ext_regs)
      end;
      (* An S-bit instruction opens a fresh braid on its BEU: every internal
         value of the previous braid is architecturally dead here. (Braid
         core only: a BEU holds one braid at a time, so the previous braid
         has fully issued by dispatch. A cgooo block window can still hold
         unissued instructions of the previous braid, so the live set is
         cleared at issue instead — see [on_issue].) *)
      if
        Trace.braid_start tr uid
        && s.cfg.Config.kind = Config.Braid_exec
        && beu >= 0
        && beu < Array.length s.live_internal
      then Hashtbl.reset s.live_internal.(beu)

let on_ext_release t ~cycle ~uid =
  match t with
  | None -> ()
  | Some s ->
      s.ext_alloc <- s.ext_alloc - 1;
      if s.invariants && s.ext_alloc < 0 then
        report t ~invariant:"extfile.double-release" ~cycle ~uid
          "more external-file releases than allocations"

let internal_def (ins : Instr.t) =
  List.find_opt (fun (r : Reg.t) -> r.Reg.space = Reg.Intern) (Instr.defs ins)

let on_issue t ~cycle ~beu ~bypassed tr uid =
  match t with
  | None -> ()
  | Some s when not s.invariants -> ()
  | Some s ->
      if bypassed && not (Trace.writes_ext tr uid) then
        report t ~invariant:"bypass.internal" ~cycle ~uid
          "a value without the E bit rode the bypass network";
      (* cgooo in-block order: a block window issues strictly from its
         in-order head, so uids leaving one window only ever increase
         (blocks occupy a window one at a time, in dispatch order) *)
      if beu >= 0 && beu < Array.length s.last_issue_uid then begin
        if uid <= s.last_issue_uid.(beu) then
          report t ~invariant:"cgooo.block-order" ~cycle ~uid
            (Printf.sprintf
               "issued from block window %d after uid %d: in-block issue \
                must be in order"
               beu
               s.last_issue_uid.(beu));
        s.last_issue_uid.(beu) <- uid;
        (* a braid opening at issue: the previous braid in this window has
           fully issued, its internal values are architecturally dead *)
        if
          Trace.braid_start tr uid && beu < Array.length s.live_internal
        then Hashtbl.reset s.live_internal.(beu)
      end;
      if Trace.writes_int tr uid && beu >= 0 && beu < Array.length s.live_internal
      then
        match internal_def (Trace.instr tr uid) with
        | None -> ()
        | Some r ->
            if r.Reg.idx < 0 || r.Reg.idx >= Reg.num_internal then
              report t ~invariant:"internal.rf-range" ~cycle ~uid
                (Printf.sprintf "internal register index %d outside 0..%d"
                   r.Reg.idx (Reg.num_internal - 1))
            else begin
              Hashtbl.replace s.live_internal.(beu) r.Reg.idx ();
              if Hashtbl.length s.live_internal.(beu) > Reg.num_internal then
                report t ~invariant:"internal.rf-capacity" ~cycle ~uid
                  (Printf.sprintf
                     "%d live internal values on BEU %d exceed the %d-entry \
                      file"
                     (Hashtbl.length s.live_internal.(beu))
                     beu Reg.num_internal)
            end

let grow_commits s =
  if s.commits >= Array.length s.commit_uid then begin
    let n = 2 * Array.length s.commit_uid in
    let uid' = Array.make n 0 and pc' = Array.make n 0 in
    Array.blit s.commit_uid 0 uid' 0 s.commits;
    Array.blit s.commit_pc 0 pc' 0 s.commits;
    s.commit_uid <- uid';
    s.commit_pc <- pc'
  end

let on_commit t ~cycle tr uid =
  match t with
  | None -> ()
  | Some s ->
      if s.invariants && uid <> s.last_commit_uid + 1 then
        report t ~invariant:"commit.order" ~cycle ~uid
          (Printf.sprintf "committed uid %d directly after uid %d" uid
             s.last_commit_uid);
      s.last_commit_uid <- uid;
      grow_commits s;
      s.commit_uid.(s.commits) <- uid;
      s.commit_pc.(s.commits) <- Trace.pc tr uid;
      s.commits <- s.commits + 1

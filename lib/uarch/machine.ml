module Obs = Braid_obs

type mem_status = Mem_blocked | Mem_forward | Mem_cache

(* Per-cycle bounded resource (ports, bypass slots).

   A circular window of usage counters stamped with the cycle they count
   for: slot [c land mask] is valid for cycle [c] iff [stamp = c]. The
   machine publishes its clock via [set_now] each cycle, which is what
   makes reclamation exact — a slot whose stamp is in the past is dead and
   claimable, while a collision between two live (>= now) cycles doubles
   the window instead of merging their counts. Write-port scans
   ([take_first_free]) can probe arbitrarily far past the nominal horizon
   when a port is saturated, so no fixed window is safe without the
   stamp/now discipline. Steady-state operation allocates nothing. *)
module Rc = struct
  type t = {
    limit : int;
    mutable usage : int array;
    mutable stamp : int array;  (* cycle each slot counts for; -1 = never *)
    mutable mask : int;  (* window size - 1; size is a power of two *)
    mutable now : int;  (* machine clock; stamps < now are dead *)
  }

  let initial_slots = 1024

  let create limit =
    {
      limit;
      usage = Array.make initial_slots 0;
      stamp = Array.make initial_slots (-1);
      mask = initial_slots - 1;
      now = 0;
    }

  let set_now t c = t.now <- c

  (* Grow until every live cycle has its own slot (one doubling suffices
     whenever the live span fits the doubled window, which it always does
     for latency-bounded schedules; the loop is a correctness backstop). *)
  let grow t =
    let live = ref [] in
    Array.iteri
      (fun i s -> if s >= t.now then live := (s, t.usage.(i)) :: !live)
      t.stamp;
    let rec fit size =
      let usage = Array.make size 0 in
      let stamp = Array.make size (-1) in
      let mask = size - 1 in
      let ok =
        List.for_all
          (fun (c, u) ->
            let i = c land mask in
            if stamp.(i) = -1 then begin
              stamp.(i) <- c;
              usage.(i) <- u;
              true
            end
            else false)
          !live
      in
      if ok then begin
        t.usage <- usage;
        t.stamp <- stamp;
        t.mask <- mask
      end
      else fit (2 * size)
    in
    fit (2 * (t.mask + 1))

  (* The slot counting for cycle [c], claiming a dead one if needed.
     Only [take] calls this; reads must stay side-effect free. *)
  let rec slot_of t c =
    let i = c land t.mask in
    let s = t.stamp.(i) in
    if s = c then i
    else if s < t.now then begin
      t.stamp.(i) <- c;
      t.usage.(i) <- 0;
      i
    end
    else begin
      grow t;
      slot_of t c
    end

  let used t c =
    let i = c land t.mask in
    if t.stamp.(i) = c then t.usage.(i) else 0

  let available t c n = used t c + n <= t.limit

  let take t c n =
    let i = slot_of t c in
    t.usage.(i) <- t.usage.(i) + n

  let try_take t c n =
    if available t c n then begin
      take t c n;
      true
    end
    else false

  let take_first_free t c n =
    if n > t.limit then
      invalid_arg
        (Printf.sprintf "Rc.take_first_free: request %d exceeds limit %d" n
           t.limit);
    let rec go c = if available t c n then c else go (c + 1) in
    let c' = go c in
    take t c' n;
    c'
end

(* Per-instruction in-flight state lives in parallel arrays indexed by uid
   (struct-of-arrays): creating a machine allocates a handful of flat
   arrays instead of one record per event, and the schedulers' per-cycle
   scans walk contiguous ints. [complete_cycle]/[issue_cycle] double as
   the issued flag (max_int = not issued). *)
type t = {
  cfg : Config.t;
  trace : Trace.t;
  (* the trace's arrays, lifted out for the hot paths: per-uid static
     index, address and producer CSR, and the static table's columns *)
  n : int;
  sidx : int array;
  addr : int array;
  dep_off : int array;
  dep_uid : int array;
  dep_via : Bytes.t;
  s_flags : int array;
  s_latency : int array;
  s_ext_reads : int array;
  s_int_reads : int array;
  ready_deps : int array;  (* producers not yet visible *)
  issue_cycle : int array;  (* max_int = not issued *)
  complete_cycle : int array;
  ext_visible : int array;  (* cycle from which consumers can read *)
  int_visible : int array;
  beu : int array;  (* BEU index for braid-core slots, -1 otherwise *)
  ext_entry_freed : Bytes.t;  (* '\001' = external-file entry released *)
  (* dependence graph in CSR form: children of p are
     [child_uid.(child_off.(p)) .. child_uid.(child_off.(p+1) - 1)] *)
  child_off : int array;
  child_uid : int array;
  child_via : Bytes.t;  (* '\001' = internal-register edge *)
  last_ext_reader : int array;  (* -1 = none; braid dead-value release *)
  (* scheduler residency: [home.(u)] is the core cluster holding a
     dispatched, not-yet-issued uid (-1 = none); [ready_in.(c)] counts
     resident entries of cluster [c] whose registers are ready. The wake
     drain and [do_issue] keep the counts current so cores can skip
     clusters (and window tails) with no register-ready work. *)
  home : int array;
  ready_in : int array;
  hier : Mem_hier.hierarchy;
  pred : Predictor.t;
  (* config scalars lifted out of the nested record for the hot paths *)
  alloc_width : int;
  src_width : int;
  dst_width : int;
  max_unresolved : int;
  lsq_limit : int;
  inflight_limit : int;
  is_braid : bool;
  mutable now : int;
  (* wakeup and release calendars (payload = consumer/writer uid) *)
  wake : Calq.t;
  reg_free_at : Calq.t;
  (* resources *)
  read_ports : Rc.t;
  write_ports : Rc.t;
  bypass : Rc.t;
  mutable free_regs : int;
  (* per-cycle dispatch budgets *)
  mutable alloc_left : int;
  mutable src_left : int;
  mutable dst_left : int;
  (* occupancy *)
  mutable dispatched_count : int;
  mutable committed_count : int;
  mutable commit_idx : int;
  mutable inflight_mem : int;
  (* [conflict_store.(u)] for a load: uid of the youngest older store to
     the same address (-1 = none), fixed by the trace. Since dispatch and
     commit are both in uid order, the load's disambiguation status needs
     no in-flight store set: the conflicting store is in flight exactly
     while [commit_idx] has not passed it. *)
  conflict_store : int array;
  mutable stall_regs : int;
  mutable unresolved_branches : int;
  branch_resolve_at : Calq.t;  (* one entry per branch at its resolve cycle *)
  (* activity counters for the complexity/energy model (§5.1) *)
  mutable ext_rf_reads : int;
  mutable ext_rf_writes : int;
  mutable int_rf_reads : int;
  mutable int_rf_writes : int;
  mutable bypass_values : int;
  (* observability: registered handles on a live sink, dummies (dead
     stores, no branches) on the disabled one *)
  obs : Obs.Sink.t;
  (* invariant monitor / commit recorder; Debug.off costs one pattern
     match per hook and never mutates machine state *)
  dbg : Debug.t;
  trc : Obs.Tracer.t option;  (* cached: consulted on every issue *)
  oc_dispatch : Obs.Counters.counter;
  oc_issue : Obs.Counters.counter;
  oc_commit : Obs.Counters.counter;
  oc_ext_alloc : Obs.Counters.counter;
  oc_ext_early : Obs.Counters.counter;
  oc_ext_commit_rel : Obs.Counters.counter;
  oc_ext_stall : Obs.Counters.counter;
  oc_bypass_use : Obs.Counters.counter;
  oc_bypass_ovf : Obs.Counters.counter;
}

let create ?(obs = Obs.Sink.disabled) ?(dbg = Debug.off) ?hier cfg trace =
  let n = Trace.length trace in
  let st = trace.Trace.static in
  let dep_off = trace.Trace.dep_off in
  let hier =
    match hier with
    | Some h -> h
    | None -> Mem_hier.create_hierarchy ~obs cfg.Config.mem
  in
  (* the static dependence structure (CSR children, last external
     readers, store disambiguation) is memoised on the trace: repeated
     runs — the perf harness — share one copy; only the per-run mutable
     counts are copied fresh *)
  let tb = Trace.dep_tables trace in
  {
    cfg;
    trace;
    n;
    sidx = trace.Trace.sidx;
    addr = trace.Trace.addr;
    dep_off;
    dep_uid = trace.Trace.dep_uid;
    dep_via = trace.Trace.dep_via;
    s_flags = st.Trace.s_flags;
    s_latency = st.Trace.s_latency;
    s_ext_reads = st.Trace.s_ext_reads;
    s_int_reads = st.Trace.s_int_reads;
    ready_deps = Array.init n (fun u -> dep_off.(u + 1) - dep_off.(u));
    issue_cycle = Array.make n max_int;
    complete_cycle = Array.make n max_int;
    ext_visible = Array.make n max_int;
    int_visible = Array.make n max_int;
    beu = Array.make n (-1);
    ext_entry_freed = Bytes.make n '\000';
    child_off = tb.Trace.child_off;
    child_uid = tb.Trace.child_uid;
    child_via = tb.Trace.child_via;
    last_ext_reader = tb.Trace.last_ext_reader;
    home = Array.make n (-1);
    ready_in = Array.make (max 1 cfg.Config.clusters) 0;
    hier;
    pred = Predictor.create ~obs cfg;
    alloc_width = cfg.Config.alloc_width;
    src_width = cfg.Config.rename_src_width;
    dst_width = cfg.Config.rename_dst_width;
    max_unresolved = cfg.Config.max_unresolved_branches;
    lsq_limit = cfg.Config.lsq_entries;
    inflight_limit = cfg.Config.inflight;
    is_braid = cfg.Config.kind = Config.Braid_exec;
    now = -1;
    (* the horizon only needs to cover the longest completion latency
       (memory fill, ~400 cycles); an undersized wheel grows, it does not
       miscount *)
    wake = Calq.create ~horizon:1024;
    reg_free_at = Calq.create ~horizon:1024;
    read_ports = Rc.create cfg.Config.rf_read_ports;
    write_ports = Rc.create cfg.Config.rf_write_ports;
    bypass = Rc.create cfg.Config.bypass_per_cycle;
    free_regs = cfg.Config.ext_regs;
    alloc_left = 0;
    src_left = 0;
    dst_left = 0;
    dispatched_count = 0;
    committed_count = 0;
    commit_idx = 0;
    inflight_mem = 0;
    conflict_store = tb.Trace.conflict_store;
    stall_regs = 0;
    unresolved_branches = 0;
    branch_resolve_at = Calq.create ~horizon:1024;
    ext_rf_reads = 0;
    ext_rf_writes = 0;
    int_rf_reads = 0;
    int_rf_writes = 0;
    bypass_values = 0;
    obs;
    dbg;
    trc = Obs.Sink.tracer obs;
    oc_dispatch = Obs.Sink.counter obs "dispatch.instrs";
    oc_issue = Obs.Sink.counter obs "issue.instrs";
    oc_commit = Obs.Sink.counter obs "commit.instrs";
    oc_ext_alloc = Obs.Sink.counter obs "extfile.allocs";
    oc_ext_early = Obs.Sink.counter obs "extfile.early_releases";
    oc_ext_commit_rel = Obs.Sink.counter obs "extfile.commit_releases";
    oc_ext_stall = Obs.Sink.counter obs "extfile.dispatch_stalls";
    oc_bypass_use = Obs.Sink.counter obs "bypass.uses";
    oc_bypass_ovf = Obs.Sink.counter obs "bypass.overflows";
  }

let cfg t = t.cfg
let obs_sink t = t.obs
let debug t = t.dbg
let num_slots t = t.n
let trace t = t.trace

(* static facts of a uid: one load through its static index *)
let flags t u = t.s_flags.(t.sidx.(u))
let ext_src_reads t u = t.s_ext_reads.(t.sidx.(u))
let is_load_f f = f land Trace.flag_load <> 0
let is_mem_f f = f land (Trace.flag_load lor Trace.flag_store) <> 0
let is_cond_branch_f f = f land Trace.flag_cond_branch <> 0
let writes_ext_f f = f land Trace.flag_writes_ext <> 0
let now t = t.now
let hierarchy t = t.hier
let predictor t = t.pred
let stall_dispatch_regs t = t.stall_regs

let issued t u = t.issue_cycle.(u) <> max_int
let complete_cycle t u = t.complete_cycle.(u)
let ext_visible t u = t.ext_visible.(u)
let beu t u = t.beu.(u)
let set_beu t u i = t.beu.(u) <- i

let begin_cycle t =
  t.now <- t.now + 1;
  (* publish the clock to the per-cycle resources: it is what lets them
     reclaim stale counter slots exactly *)
  Rc.set_now t.read_ports t.now;
  Rc.set_now t.write_ports t.now;
  Rc.set_now t.bypass t.now;
  Calq.drain t.wake t.now (fun u ->
      let d = t.ready_deps.(u) - 1 in
      t.ready_deps.(u) <- d;
      if d = 0 && t.home.(u) >= 0 then
        t.ready_in.(t.home.(u)) <- t.ready_in.(t.home.(u)) + 1);
  Calq.drain t.reg_free_at t.now (fun u ->
      if Bytes.get t.ext_entry_freed u = '\000' then begin
        Bytes.set t.ext_entry_freed u '\001';
        t.free_regs <- t.free_regs + 1;
        (* released before commit: the braid dead-value path *)
        Obs.Counters.incr t.oc_ext_early;
        Debug.on_ext_release t.dbg ~cycle:t.now ~uid:u
      end);
  Calq.drain t.branch_resolve_at t.now (fun _ ->
      t.unresolved_branches <- t.unresolved_branches - 1);
  t.alloc_left <- t.alloc_width;
  t.src_left <- t.src_width;
  t.dst_left <- t.dst_width

let reg_ready t u = t.ready_deps.(u) = 0

let note_resident t u c =
  t.home.(u) <- c;
  if t.ready_deps.(u) = 0 then t.ready_in.(c) <- t.ready_in.(c) + 1

let ready_in t c = t.ready_in.(c)

(* [complete_cycle] is max_int until issue, so the comparison alone
   implies "issued and past its completion cycle" *)
let is_complete t u = t.complete_cycle.(u) <= t.now

(* Store addresses are known from dispatch (the LSQ disambiguates
   perfectly; all cores share this): only the youngest older store to the
   same address matters, and it is static in the trace. It is still in
   flight — not yet drained to the cache — exactly while [commit_idx]
   hasn't passed it (commit is in uid order, and once it has committed,
   every older same-address store has too, so no conflict remains). *)
let mem_ready t u =
  let su = t.conflict_store.(u) in
  if su < 0 || su < t.commit_idx then Mem_cache
  else if is_complete t su then Mem_forward
  else Mem_blocked

let can_issue_ports t u =
  Rc.available t.read_ports t.now (ext_src_reads t u)

let schedule_wake t cycle uid = Calq.add t.wake cycle uid

(* Dep-visibility and cross-braid checks at issue time; only reached when
   the monitor is live with invariant checking on. *)
let debug_check_issue t u =
  Trace.iter_deps t.trace u (fun p via ->
      if not (issued t p) then
        Debug.report t.dbg ~invariant:"wakeup.premature" ~cycle:t.now ~uid:u
          (Printf.sprintf "consumes producer %d which has not issued" p)
      else begin
        let visible = if via then t.int_visible.(p) else t.ext_visible.(p) in
        let visible =
          if visible = max_int then min t.int_visible.(p) t.ext_visible.(p)
          else visible
        in
        let visible =
          if visible = max_int then t.complete_cycle.(p) else visible
        in
        if visible > t.now then
          Debug.report t.dbg ~invariant:"wakeup.premature" ~cycle:t.now ~uid:u
            (Printf.sprintf
               "reads producer %d before its value is visible (cycle %d)" p
               visible);
        (* internal (local) values are confined to the producing braid and
           its BEU / block window on both cores that carry them *)
        if via && (t.is_braid || t.cfg.Config.kind = Config.Cgooo) then begin
          if t.beu.(p) <> t.beu.(u) then
            Debug.report t.dbg ~invariant:"internal.cross-beu" ~cycle:t.now
              ~uid:u
              (Printf.sprintf "internal value of %d (BEU %d) read on BEU %d" p
                 t.beu.(p) t.beu.(u));
          let bp = Trace.braid_id t.trace p and bu = Trace.braid_id t.trace u in
          if bp <> bu then
            Debug.report t.dbg ~invariant:"internal.cross-braid" ~cycle:t.now
              ~uid:u
              (Printf.sprintf
                 "internal value crosses from braid %d (instr %d) to braid %d"
                 bp p bu)
        end
      end)

let do_issue t u =
  if issued t u then
    invalid_arg
      (Printf.sprintf "Machine.do_issue: instruction %d already issued (cycle %d)"
         u t.now);
  if not (reg_ready t u) then
    invalid_arg
      (Printf.sprintf
         "Machine.do_issue: instruction %d still waits on %d producer(s) (cycle %d)"
         u t.ready_deps.(u) t.now);
  (* leaving the scheduler: registers were ready, so it was counted *)
  (if t.home.(u) >= 0 then begin
     t.ready_in.(t.home.(u)) <- t.ready_in.(t.home.(u)) - 1;
     t.home.(u) <- -1
   end);
  let ip = t.sidx.(u) in
  let f = t.s_flags.(ip) in
  let ext_reads = t.s_ext_reads.(ip) in
  Rc.take t.read_ports t.now ext_reads;
  t.ext_rf_reads <- t.ext_rf_reads + ext_reads;
  t.int_rf_reads <- t.int_rf_reads + t.s_int_reads.(ip);
  let lat =
    if is_load_f f then
      match mem_ready t u with
      | Mem_forward -> 1
      | Mem_cache -> Mem_hier.data_latency t.hier t.addr.(u)
      | Mem_blocked ->
          invalid_arg
            (Printf.sprintf
               "Machine.do_issue: load %d issued while blocked on an \
                unresolved older store (cycle %d)"
               u t.now)
    else t.s_latency.(ip)
  in
  let complete = t.now + lat in
  t.issue_cycle.(u) <- t.now;
  t.complete_cycle.(u) <- complete;
  Obs.Counters.incr t.oc_issue;
  (match t.trc with
  | None -> ()
  | Some tr ->
      Obs.Tracer.record tr
        (Obs.Tracer.Exec { uid = u; track = t.beu.(u); start = t.now; dur = lat });
      (* a load that went past the L1D is a miss fill in flight *)
      if is_load_f f && lat > t.cfg.Config.mem.Config.l1d.Config.latency then
        Obs.Tracer.record tr
          (Obs.Tracer.Span
             { name = "L1D miss"; cat = "cache"; track = t.beu.(u); start = t.now; dur = lat }));
  if f land Trace.flag_writes_int <> 0 then begin
    t.int_visible.(u) <- complete;
    t.int_rf_writes <- t.int_rf_writes + 1
  end;
  let took_bypass = ref false in
  if writes_ext_f f then begin
    let bypassed = Rc.try_take t.bypass complete 1 in
    let wb = Rc.take_first_free t.write_ports complete 1 in
    t.ext_rf_writes <- t.ext_rf_writes + 1;
    if bypassed then begin
      t.bypass_values <- t.bypass_values + 1;
      took_bypass := true;
      Obs.Counters.incr t.oc_bypass_use
    end
    else
      (* all bypass slots of the completion cycle taken: the value must
         wait for a write port and reach consumers through the file *)
      Obs.Counters.incr t.oc_bypass_ovf;
    t.ext_visible.(u) <- (if bypassed then complete else wb + 1)
  end;
  if Debug.checking t.dbg then begin
    debug_check_issue t u;
    Debug.on_issue t.dbg ~cycle:t.now ~beu:t.beu.(u) ~bypassed:!took_bypass
      t.trace u
  end;
  for k = t.child_off.(u) to t.child_off.(u + 1) - 1 do
    let c = t.child_uid.(k) in
    let via = Bytes.get t.child_via k <> '\000' in
    let visible = if via then t.int_visible.(u) else t.ext_visible.(u) in
    let visible =
      if visible = max_int then
        (* consumer reads a register this instruction does not publish
           (e.g. internal read of an I+E value resolved externally);
           fall back to the other copy *)
        min t.int_visible.(u) t.ext_visible.(u)
      else visible
    in
    let visible = if visible = max_int then complete else visible in
    schedule_wake t (max visible (t.now + 1)) c
  done;
  (* branch resolution releases its checkpoint *)
  if is_cond_branch_f f && t.max_unresolved > 0 then
    Calq.add t.branch_resolve_at (max (complete + 1) (t.now + 1)) u;
  (* Braid dead-value early release: the in-flight external entry of a
     producer frees once the producer has completed and its last external
     reader (compiler liveness bits) has issued. Commit is the fallback
     release, so this only shortens residency. *)
  if t.is_braid then begin
      let maybe_release p =
        if
          writes_ext_f (flags t p)
          && issued t p
          && Bytes.get t.ext_entry_freed p = '\000'
        then begin
          let r = t.last_ext_reader.(p) in
          let release_at =
            if r < 0 then Some (t.complete_cycle.(p) + 1)
            else if issued t r then
              Some (max t.complete_cycle.(p) t.issue_cycle.(r) + 1)
            else None
          in
          match release_at with
          | Some c -> Calq.add t.reg_free_at (max c (t.now + 1)) p
          | None -> ()
        end
      in
      maybe_release u;
      for k = t.dep_off.(u) to t.dep_off.(u + 1) - 1 do
        if Bytes.get t.dep_via k = '\000' then maybe_release t.dep_uid.(k)
      done
  end

let can_dispatch t u =
  let ip = t.sidx.(u) in
  let f = t.s_flags.(ip) in
  let reg_ok = (not (writes_ext_f f)) || t.free_regs >= 1 in
  let checkpoint_ok =
    t.max_unresolved = 0
    || (not (is_cond_branch_f f))
    || t.unresolved_branches < t.max_unresolved
  in
  let ok =
    t.alloc_left >= 1
    && t.src_left >= t.s_ext_reads.(ip)
    && ((not (writes_ext_f f)) || t.dst_left >= 1)
    && reg_ok
    && checkpoint_ok
    && ((not (is_mem_f f)) || t.inflight_mem < t.lsq_limit)
    && t.dispatched_count - t.committed_count < t.inflight_limit
  in
  if not reg_ok then begin
    t.stall_regs <- t.stall_regs + 1;
    Obs.Counters.incr t.oc_ext_stall
  end;
  ok

let note_dispatch t u =
  let ip = t.sidx.(u) in
  let f = t.s_flags.(ip) in
  t.alloc_left <- t.alloc_left - 1;
  t.src_left <- t.src_left - t.s_ext_reads.(ip);
  if writes_ext_f f then begin
    t.dst_left <- t.dst_left - 1;
    t.free_regs <- t.free_regs - 1
  end;
  if is_mem_f f then t.inflight_mem <- t.inflight_mem + 1;
  if is_cond_branch_f f && t.max_unresolved > 0 then
    t.unresolved_branches <- t.unresolved_branches + 1;
  t.dispatched_count <- t.dispatched_count + 1;
  Obs.Counters.incr t.oc_dispatch;
  if writes_ext_f f then Obs.Counters.incr t.oc_ext_alloc;
  Debug.on_dispatch t.dbg ~cycle:t.now ~beu:t.beu.(u) t.trace u;
  match t.trc with
  | None -> ()
  | Some tr ->
      Obs.Tracer.record tr
        (Obs.Tracer.Stage
           { cycle = t.now; uid = u; stage = Obs.Tracer.Dispatch; track = t.beu.(u) })

let commit_stage t =
  let budget = ref t.cfg.Config.commit_width in
  let continue_ = ref true in
  let tr = t.trc in
  while !continue_ && !budget > 0 && t.commit_idx < t.n do
    let u = t.commit_idx in
    if is_complete t u then begin
      let f = flags t u in
      Obs.Counters.incr t.oc_commit;
      Debug.on_commit t.dbg ~cycle:t.now t.trace u;
      (match tr with
      | None -> ()
      | Some tr ->
          Obs.Tracer.record tr
            (Obs.Tracer.Stage
               { cycle = t.now; uid = u; stage = Obs.Tracer.Commit; track = t.beu.(u) }));
      (* stores drain to the data cache at commit (and, on a shared
         backside, through the coherence directory) *)
      if f land Trace.flag_store <> 0 then Mem_hier.drain_store t.hier t.addr.(u);
      (* release the rename/in-flight entry at commit unless the braid
         dead-value path already released it *)
      if writes_ext_f f && Bytes.get t.ext_entry_freed u = '\000' then begin
        Bytes.set t.ext_entry_freed u '\001';
        t.free_regs <- t.free_regs + 1;
        Obs.Counters.incr t.oc_ext_commit_rel;
        Debug.on_ext_release t.dbg ~cycle:t.now ~uid:u
      end;
      if is_mem_f f then t.inflight_mem <- t.inflight_mem - 1;
      t.committed_count <- t.committed_count + 1;
      t.commit_idx <- t.commit_idx + 1;
      decr budget
    end
    else continue_ := false
  done

let all_committed t = t.commit_idx >= t.n
let committed_count t = t.committed_count

type dispatch_block =
  | Block_none
  | Block_alloc
  | Block_rename
  | Block_regs
  | Block_checkpoint
  | Block_lsq
  | Block_inflight

let dispatch_block_reason t u =
  let f = flags t u in
  if t.alloc_left < 1 then Block_alloc
  else if t.src_left < ext_src_reads t u
          || (writes_ext_f f && t.dst_left < 1) then Block_rename
  else if
    writes_ext_f f && t.free_regs < 1
    &&
    match t.cfg.Config.kind with
    | Config.In_order | Config.Dep_steer | Config.Ooo | Config.Cgooo -> true
    | Config.Braid_exec -> true
  then Block_regs
  else if
    t.cfg.Config.max_unresolved_branches > 0
    && is_cond_branch_f f
    && t.unresolved_branches >= t.cfg.Config.max_unresolved_branches
  then Block_checkpoint
  else if
    is_mem_f f
    && t.inflight_mem >= t.cfg.Config.lsq_entries
  then Block_lsq
  else if t.dispatched_count - t.committed_count >= t.cfg.Config.inflight then
    Block_inflight
  else Block_none

let dispatch_block_name = function
  | Block_none -> "none"
  | Block_alloc -> "alloc-width"
  | Block_rename -> "rename-width"
  | Block_regs -> "ext-regs"
  | Block_checkpoint -> "checkpoint"
  | Block_lsq -> "lsq"
  | Block_inflight -> "inflight"

type activity = {
  ext_rf_reads : int;
  ext_rf_writes : int;
  int_rf_reads : int;
  int_rf_writes : int;
  bypass_values : int;
}

let activity (m : t) =
  let t = m in
  {
    ext_rf_reads = t.ext_rf_reads;
    ext_rf_writes = t.ext_rf_writes;
    int_rf_reads = t.int_rf_reads;
    int_rf_writes = t.int_rf_writes;
    bypass_values = t.bypass_values;
  }

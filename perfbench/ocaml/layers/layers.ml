(* Traced replay for the benchmark harness.

   Replays one workload's requests in-process and records a span around
   every call into a layer's public entry point: Spec.generate,
   Transform.run/conventional, Emulator.run ~trace:true, Trace.dep_tables,
   Pipeline.run, Emulator.Compiled, Driver.plan/measure, Cmp_bench,
   Sweep.run, Cache.store/find, Frontier, Request/Response JSON and
   Exec.exec. Spans are kept in memory and written out once the replay
   ends; the harness turns them into per-layer self times.

   With --spans off the same calls run without any clock or allocation
   reads, so the difference between the two walls is the tracing overhead.

   Usage: layers.exe WORKLOAD on|off REQUESTS OUT SCRATCH_DIR

   REQUESTS holds braidsim-api/1 requests, one per line, in the order the
   workload issued them. OUT receives one JSON object per line: spans,
   facts (counts and ratios measured at the layer boundaries), the
   terminal response frame of every request, errors, and a final meta
   line with the replay's wall time. *)

module U = Braid_uarch
module W = Braid_workload
module C = Braid_core
module S = Braid_sample
module Sim = Braid_sim
module Dse = Braid_dse
module Api = Braid_api
module Cb = Braid_cmp.Cmp_bench

(* --- span recorder --- *)

type span = {
  id : int;
  name : string;
  parent : int;
  req : int;
  t0 : float;
  t1 : float;
  words : float;  (* allocated while the span was open, children included *)
  instrs : int;  (* dynamic instructions the call processed; 0 = unknown *)
  cycles : int;  (* simulated cycles, for timing-model calls *)
  core : string;
}

let enabled = ref true
let recorded = ref []
let next_id = ref 0
let open_spans = ref []
let current_req = ref (-1)
let out_lines = ref []
let emit j = out_lines := Json.to_string j :: !out_lines

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [info] reads the instruction and cycle counts off the call's result. *)
let span ?(info = fun _ -> (0, 0)) ?(core = "") name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let w0 = allocated_words () in
    let t0 = Unix.gettimeofday () in
    let v = f () in
    let t1 = Unix.gettimeofday () in
    let words = allocated_words () -. w0 in
    open_spans := List.tl !open_spans;
    let instrs, cycles = info v in
    recorded :=
      { id; name; parent; req = !current_req; t0; t1; words; instrs; cycles; core }
      :: !recorded;
    v
  end

let fact name value =
  if !enabled then
    emit
      (Json.Obj
         [
           ("kind", Json.Str "fact"); ("name", Json.Str name);
           ("req", Json.Num (float_of_int !current_req));
           ("value", Json.Num value);
         ])

let error fmt =
  Printf.ksprintf
    (fun message ->
      emit (Json.Obj [ ("kind", Json.Str "error"); ("message", Json.Str message) ]))
    fmt

let num n = Json.Num (float_of_int n)

let span_json s =
  Json.Obj
    [
      ("kind", Json.Str "span"); ("id", num s.id); ("name", Json.Str s.name);
      ("parent", num s.parent); ("req", num s.req); ("t0", Json.Num s.t0);
      ("t1", Json.Num s.t1); ("words", Json.Num s.words);
      ("instrs", num s.instrs); ("cycles", num s.cycles);
      ("core", Json.Str s.core);
    ]

(* --- shared steps --- *)

let trace_instrs t = (Trace.length t, 0)
let pipeline_info (r : U.Pipeline.result) =
  (r.U.Pipeline.instructions, r.U.Pipeline.cycles)

let machine core width =
  let cfg = U.Config.preset_of_kind core in
  if width = 8 then cfg else U.Config.scale_width cfg width

let compile core program =
  match core with
  | U.Config.Braid_exec | U.Config.Cgooo ->
      (C.Transform.run program).C.Transform.program
  | U.Config.In_order | U.Config.Dep_steer | U.Config.Ooo ->
      (C.Transform.conventional program).C.Extalloc.program

(* Live words the trace holds on its own (the program it points to is
   owned by the binary). Only measured once per replay: the heap walk is
   slow, and it is instrumentation, so it stays outside every span. *)
let live_measured = ref false

let measure_trace_live (t : Trace.t) =
  if !enabled && not !live_measured then begin
    live_measured := true;
    let words =
      Obj.reachable_words (Obj.repr t) - Obj.reachable_words (Obj.repr t.Trace.program)
    in
    fact "isa.trace_live_words" (float_of_int words)
  end

(* generate → compile → trace → dependence tables → timing model: the
   sequence Exec.exec runs for a full-simulation [run] request. *)
let replay_run (r : Api.Request.run) =
  let profile = W.Spec.find r.Api.Request.r_bench in
  let seed = r.Api.Request.r_seed and scale = r.Api.Request.r_scale in
  let core = r.Api.Request.r_core in
  let kind = U.Config.Core_kind.to_string core in
  let program, init_mem =
    span "workload.generate_s" (fun () -> W.Spec.generate profile ~seed ~scale)
  in
  let binary = span "core.compile_s" (fun () -> compile core program) in
  let cfg = machine core r.Api.Request.r_width in
  let warm_data = List.map fst init_mem in
  match r.Api.Request.r_sample with
  | None ->
      let out =
        span "isa.trace_s"
          ~info:(fun (o : Emulator.outcome) -> (o.Emulator.dynamic_count, 0))
          (fun () -> Emulator.run ~max_steps:(50 * scale) ~trace:true ~init_mem binary)
      in
      let trace = Option.get out.Emulator.trace in
      measure_trace_live trace;
      ignore
        (span "isa.deps_s" ~info:(fun _ -> trace_instrs trace) (fun () ->
             Trace.dep_tables trace));
      ignore
        (span "uarch.pipeline_s" ~core:kind ~info:pipeline_info (fun () ->
             U.Pipeline.run ~warm_data cfg trace))
  | Some sm -> (
      match
        S.Spec.validate
          {
            S.Spec.interval = sm.Api.Request.sm_interval;
            max_k = sm.Api.Request.sm_max_k;
            warmup = sm.Api.Request.sm_warmup;
            seed = sm.Api.Request.sm_seed;
          }
      with
      | Error e -> error "sample spec: %s" e
      | Ok spec ->
          let max_steps = 50 * scale in
          let code, _ =
            span "isa.ff_s" ~info:(fun (_, n) -> (n, 0)) (fun () ->
                let code = Emulator.Compiled.compile binary in
                let run = Emulator.Compiled.start ~init_mem code in
                (code, Emulator.Compiled.advance run ~fuel:max_steps))
          in
          let plan =
            span "sample.plan_s" (fun () ->
                S.Driver.plan ~init_mem ~max_steps ~spec code)
          in
          let t =
            span "sample.measure_s" ~core:kind
              ~info:(fun (t : S.Driver.t) -> (t.S.Driver.total_instrs, 0))
              (fun () -> S.Driver.measure ~warm_data plan cfg)
          in
          let detail =
            List.fold_left
              (fun acc (rep : S.Driver.rep) ->
                acc + min spec.S.Spec.warmup rep.S.Driver.start + rep.S.Driver.length)
              0 t.S.Driver.reps
          in
          fact "sample.detail_instrs" (float_of_int detail);
          fact "sample.represented_instrs" (float_of_int t.S.Driver.total_instrs);
          (* accuracy check against a full detailed run: replay-only work,
             kept in its own span so it does not count as isa/uarch time *)
          let err =
            span "sample.verify_s" (fun () ->
                let out = Emulator.run ~max_steps ~trace:true ~init_mem binary in
                let trace = Option.get out.Emulator.trace in
                let full = U.Pipeline.run ~warm_data cfg trace in
                S.Driver.error_vs ~full t)
          in
          fact "sample.ipc_error" err)

let replay_cmp (c : Api.Request.cmp) =
  let cfg = machine c.Api.Request.c_core c.Api.Request.c_width in
  match
    U.Config.Cmp.validate
      (U.Config.Cmp.make ~l2:c.Api.Request.c_l2 ~cores:c.Api.Request.c_cores
         ~workloads:c.Api.Request.c_benches ())
  with
  | Error e -> error "cmp config: %s" e
  | Ok cmp ->
      let ctx = Sim.Suite.create_ctx () in
      let seed = c.Api.Request.c_seed and scale = c.Api.Request.c_scale in
      (* preparation first, so cmp.run_s times the shared-L2 simulation
         over memoised traces *)
      ignore (span "cmp.prepare_s" (fun () -> Cb.resolve ctx ~seed ~scale ~cfg cmp));
      ignore
        (span "cmp.run_s"
           ~core:(U.Config.Core_kind.to_string c.Api.Request.c_core)
           ~info:(fun (r : Braid_cmp.Cmp.t) ->
             (r.Braid_cmp.Cmp.instructions, r.Braid_cmp.Cmp.cycles))
           (fun () -> Cb.run ctx ~seed ~scale ~cfg cmp))

(* --- sweep --- *)

let ok_or what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let replay_sweep ~scratch ~fresh_req (s : Api.Request.sweep) =
  let open Dse in
  let seed = s.Api.Request.s_seed and scale = s.Api.Request.s_scale in
  let axes = List.map (fun a -> ok_or "axis" (Axis.of_spec a)) s.Api.Request.s_axes in
  let preset = U.Config.preset_of_kind s.Api.Request.s_preset in
  let mode = s.Api.Request.s_mode in
  let points = ok_or "grid" (Grid.expand ~base:preset ~mode axes) in
  let benches = List.map W.Spec.find s.Api.Request.s_benches in
  (match preset.U.Config.kind with
  | U.Config.Braid_exec | U.Config.Cgooo -> ()
  | _ -> failwith "the layer replay covers sweeps of braid-binary presets only");
  let budget (pt : Grid.point) = Sweep.ext_usable_of pt.Grid.config in
  (* the points' own work, one request id per (benchmark, compile
     budget): Sweep.run prepares one trace per budget and times every
     point that shares it *)
  List.iter
    (fun (pr : W.Spec.profile) ->
      List.iter
        (fun ext_usable ->
          fresh_req ();
          let program, init_mem =
            span "workload.generate_s" (fun () -> W.Spec.generate pr ~seed ~scale)
          in
          let binary =
            span "core.compile_s" (fun () ->
                ignore (C.Transform.conventional program);
                (C.Transform.run ~ext_usable program).C.Transform.program)
          in
          let trace =
            span "isa.trace_s" ~info:trace_instrs (fun () ->
                let max_steps = 50 * scale in
                Option.get (Emulator.run ~max_steps ~trace:true ~init_mem binary).Emulator.trace)
          in
          measure_trace_live trace;
          ignore
            (span "isa.deps_s" ~info:(fun _ -> trace_instrs trace) (fun () ->
                 Trace.dep_tables trace));
          let warm_data = List.map fst init_mem in
          List.iter
            (fun (pt : Grid.point) ->
              let cfg = pt.Grid.config in
              if budget pt = ext_usable then
                ignore
                  (span "uarch.pipeline_s"
                     ~core:(U.Config.Core_kind.to_string cfg.U.Config.kind)
                     ~info:pipeline_info
                     (fun () -> U.Pipeline.run ~warm_data cfg trace)))
            points)
        (List.sort_uniq compare (List.map budget points)))
    benches;
  fresh_req ();
  let cold_dir = Filename.concat scratch "cold" in
  let sweep_with dir =
    let cache = ok_or "cache" (Cache.open_dir dir) in
    Sweep.run ~cache ~ctx:(Sim.Suite.create_ctx ()) ~jobs:1 ~seed ~scale ~benches points
  in
  let runs (o : Sweep.outcome) =
    List.concat_map (fun (p : Sweep.point_result) ->
        List.map (fun r -> (p.Sweep.point, r)) p.Sweep.runs)
      o.Sweep.results
  in
  let instrs o =
    (List.fold_left (fun acc (_, r) -> acc + r.Sweep.instructions) 0 (runs o), 0)
  in
  let cold = span "dse.sweep_s" ~info:instrs (fun () -> sweep_with cold_dir) in
  ignore
    (span "dse.frontier_s" (fun () ->
         (Frontier.render cold, Frontier.to_json ~preset ~mode ~axes ~seed ~scale cold)));
  (* the cache keys Sweep.run files its entries under *)
  let keyed =
    List.map
      (fun ((pt : Grid.point), (r : Sweep.run)) ->
        ( {
            Cache.config_digest = U.Config.digest pt.Grid.config;
            bench = r.Sweep.bench;
            seed;
            scale;
            binary = "braid";
            ext_usable = budget pt;
            sampling = "";
            cores = pt.Grid.cores;
          },
          {
            Cache.cycles = r.Sweep.cycles;
            instructions = r.Sweep.instructions;
            cmp = r.Sweep.cmp;
          } ))
      (runs cold)
  in
  let copy = ok_or "cache" (Cache.open_dir (Filename.concat scratch "copy")) in
  span "dse.cache_store_s" (fun () ->
      List.iter (fun (k, e) -> Cache.store copy k e) keyed);
  let warm_cache = ok_or "cache" (Cache.open_dir cold_dir) in
  let found =
    span "dse.cache_find_s" (fun () ->
        List.map (fun (k, _) -> Cache.find warm_cache k) keyed)
  in
  List.iter2
    (fun (k, e) f ->
      if f <> Some e then
        error "cache entry %s/%s did not read back" k.Cache.bench k.Cache.config_digest)
    keyed found;
  let warm = span "dse.warm_sweep_s" ~info:instrs (fun () -> sweep_with cold_dir) in
  let c = cold.Sweep.stats and w = warm.Sweep.stats in
  fact "dse.cold_simulations" (float_of_int c.Sweep.simulated);
  fact "dse.cold_cache_hits" (float_of_int c.Sweep.cache_hits);
  fact "dse.warm_simulations" (float_of_int w.Sweep.simulated);
  fact "dse.warm_cache_hits" (float_of_int w.Sweep.cache_hits);
  if c.Sweep.cache_hits <> 0 then
    error "cold sweep reported %d cache hits" c.Sweep.cache_hits;
  if w.Sweep.simulated <> 0 then
    error "warm sweep reran %d simulations" w.Sweep.simulated

(* --- requests through the API, as the daemon executes them --- *)

let exec_line env ~id line =
  let frame =
    match span "api.json_s" (fun () -> Api.Request.of_json line) with
    | Error message -> Api.Response.Failed { id; message }
    | Ok request -> (
        match span "api.exec_s" (fun () -> Api.Exec.exec env request) with
        | Ok payload -> Api.Response.Done { id; payload }
        | Error message -> Api.Response.Failed { id; message })
  in
  let text = span "api.json_s" (fun () -> Api.Response.to_json frame) in
  emit
    (Json.Obj
       [ ("kind", Json.Str "response"); ("req", num id); ("frame", Json.Str text) ])

let replay workload ~scratch lines =
  let n = List.length lines in
  let parsed = List.map (fun l -> ok_or "request" (Api.Request.of_json l)) lines in
  (* request ids: 0..n-1 are the workload's own requests in issue order;
     the per-layer replay of each distinct request takes ids from n on *)
  let next = ref n in
  let fresh_req () =
    current_req := !next;
    incr next
  in
  List.iter
    (fun request ->
      fresh_req ();
      match request with
      | Api.Request.Run r -> replay_run r
      | Api.Request.Cmp c -> replay_cmp c
      | Api.Request.Sweep s -> replay_sweep ~scratch ~fresh_req s
      | r -> error "no layer replay for op %s" (Api.Request.op_name r))
    (List.sort_uniq compare parsed);
  (* the serve workload shares one environment across requests, like the
     daemon; the one-shot workloads start each request afresh *)
  let shared =
    {
      Api.Exec.ctx = Sim.Suite.create_ctx ();
      obs = Braid_obs.Sink.create ();
      max_jobs = Some 1;
    }
  in
  List.iteri
    (fun id line ->
      current_req := id;
      let env = if workload = "serve-mix" then shared else Api.Exec.one_shot_env () in
      exec_line env ~id line)
    lines

let () =
  match Sys.argv with
  | [| _; workload; spans; input; output; scratch |] ->
      enabled := spans = "on";
      let ic = open_in input in
      let rec read acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | l -> read (l :: acc)
      in
      let lines = read [] in
      close_in ic;
      let t0 = Unix.gettimeofday () in
      (try replay workload ~scratch lines
       with e -> error "replay raised %s" (Printexc.to_string e));
      let wall = Unix.gettimeofday () -. t0 in
      let oc = open_out output in
      let line j =
        output_string oc (Json.to_string j);
        output_char oc '\n'
      in
      List.iter (fun s -> line (span_json s)) (List.rev !recorded);
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        (List.rev !out_lines);
      line
        (Json.Obj
           [
             ("kind", Json.Str "meta"); ("wall_s", Json.Num wall);
             ("t0", Json.Num t0); ("t1", Json.Num (t0 +. wall));
             ("spans", Json.Bool !enabled);
           ]);
      close_out oc
  | _ ->
      prerr_endline "usage: layers WORKLOAD on|off REQUESTS OUT SCRATCH_DIR";
      exit 2

module Spec = Braid_workload.Spec
module U = Braid_uarch

(* Simulator-throughput harness behind `bench --perf`: times N repeated
   timing-model runs of a fixed benchmark subset on each core model and
   reports simulated cycles per wall-clock second. The trace is prepared
   once (generation, compilation and emulation are excluded from the timed
   region), so the numbers isolate the cycle-level hot path this repo keeps
   optimising — BENCH_sim.json files are its trajectory across PRs.

   Besides the pipeline rows, the harness times the functional emulators
   (`emu:NAME` rows: interpreter, a full traced run, compiled
   fast-forward — the sampled-simulation speedup base), the RV32IM
   emulators (`rvemu:FIXTURE` rows: interpreter vs threaded-code fast
   path), and sampled simulation itself (`sample:NAME` rows, carrying
   the sampled-vs-full IPC error). *)

type sample_info = {
  ipc_full : float;
  ipc_sampled : float;
  ipc_error : float;  (* |sampled - full| / full *)
}

type entry = {
  bench : string;
  core : string;
  scale : int;  (* dynamic-length target; 0 = fixed-size fixture *)
  instructions : int;
  cycles : int;  (* 0 for emulator rows: no timing model ran *)
  reps : int;
  wall_s : float;  (* total for all [reps] runs *)
  sample : sample_info option;  (* sample: rows only *)
}

let sim_cycles_per_s e =
  if e.wall_s <= 0.0 then 0.0
  else float_of_int e.cycles *. float_of_int e.reps /. e.wall_s

let sim_instrs_per_s e =
  if e.wall_s <= 0.0 then 0.0
  else float_of_int e.instructions *. float_of_int e.reps /. e.wall_s

(* Three int + three fp stand-ins spanning the simulator's behaviours:
   pointer chasing with far misses (mcf), hashing (gzip), branchy search
   (crafty), wide stencils (swim), gathers/reductions (art) and the deepest
   FP chains (mgrid) — plus two RV32IM fixtures through the frontend. *)
let rv_benches = [ "rv:fib"; "rv:crc32" ]

let default_benches =
  [ "gzip"; "mcf"; "crafty"; "swim"; "art"; "mgrid" ] @ rv_benches

let is_rv name = String.length name > 3 && String.sub name 0 3 = "rv:"

let cores =
  [ U.Config.in_order_8wide; U.Config.ooo_8wide; U.Config.braid_8wide;
    U.Config.cgooo_8wide ]

let core_name (cfg : U.Config.t) = U.Config.Core_kind.to_string cfg.U.Config.kind

let timed reps run =
  (* one untimed warm-up run faults in code and sizes the heap *)
  let r = run () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (run ())
  done;
  (r, Unix.gettimeofday () -. t0)

(* Competing engines are timed interleaved (engine A rep 1, engine B rep 1,
   engine A rep 2, ...) and each keeps its best rep, so a scheduler hiccup
   penalises one rep of one engine rather than a whole engine's block.
   The reported wall_s normalises that best rep back to [reps] runs:
   throughput = instructions / best-rep seconds. *)
let interleaved_min ~reps fs =
  let k = List.length fs in
  let mins = Array.make k infinity in
  List.iter (fun f -> ignore (f ())) fs;
  for _ = 1 to reps do
    List.iteri
      (fun i f ->
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        let d = Unix.gettimeofday () -. t0 in
        if d < mins.(i) then mins.(i) <- d)
      fs
  done;
  mins

(* Functional-emulator rows for one prepared benchmark: the interpreter
   (untraced), a full traced run ([Emulator.run ~trace:true], the compiled
   engine's tracer; the row keeps its historical name "emu-interp-traced"
   so trajectories stay comparable), and the compiled fast-forward engine
   — all on the conventional binary. The compiled/interpreted ratio is the
   sampled-simulation fast-forward speedup. *)
let measure_emu ~reps ~scale (p : Suite.prepared) name =
  let program = p.Suite.conventional.Braid_core.Extalloc.program in
  let init_mem = p.Suite.init_mem in
  let code = Emulator.Compiled.compile program in
  let interp () = Emulator.run ~trace:false ~init_mem program in
  let interp_traced () = Emulator.run ~trace:true ~init_mem program in
  let compiled () =
    let run = Emulator.Compiled.start ~init_mem code in
    Emulator.Compiled.advance run ~fuel:max_int
  in
  let n = (interp ()).Emulator.dynamic_count in
  let mins =
    interleaved_min ~reps
      [
        (fun () -> ignore (interp ()));
        (fun () -> ignore (interp_traced ()));
        (fun () -> ignore (compiled ()));
      ]
  in
  List.mapi
    (fun i core ->
      {
        bench = "emu:" ^ name;
        core;
        scale;
        instructions = n;
        cycles = 0;
        reps;
        wall_s = mins.(i) *. float_of_int reps;
        sample = None;
      })
    [ "emu-interp"; "emu-interp-traced"; "emu-compiled" ]

(* One row per core on a prepared program, paired with the full result
   (the sampled rows' reference). The trace comes from the ctx, outside
   the timed region. *)
let pipeline_rows ctx ~reps ~bench ~scale (p : Suite.prepared) =
  List.map
    (fun (cfg : U.Config.t) ->
      let trace = Suite.trace ctx p cfg.U.Config.kind in
      let r, wall_s =
        timed reps (fun () ->
            U.Pipeline.run ~warm_data:p.Suite.warm_data cfg trace)
      in
      ( r,
        {
          bench;
          core = core_name cfg;
          scale;
          instructions = r.U.Pipeline.instructions;
          cycles = r.U.Pipeline.cycles;
          reps;
          wall_s;
          sample = None;
        } ))
    cores

(* An rv: fixture yields six entries: a "frontend" row timing the
   decode+lower pass itself (instructions = reachable RV instructions,
   cycles = static IR emitted, so sim_instrs_per_s is frontend throughput),
   two "rvemu:" rows timing the RV32IM emulators (interpreter vs
   threaded-code fast path), then the usual three timing-core rows on the
   translated program. The fixture is fixed-size; entry [scale] is 0. *)
let rv_emu_max_steps = 4_000_000

let measure_rv ctx ~reps name =
  let fixture = String.sub name 3 (String.length name - 3) in
  let img =
    match Braid_rv.Fixtures.image fixture with
    | Some img -> img
    | None -> raise Not_found
  in
  let translate () =
    match Braid_rv.Translate.run img with
    | Ok t -> t
    | Error e -> failwith (name ^ ": " ^ Braid_rv.Translate.error_to_string e)
  in
  let t, wall_s = timed reps translate in
  let frontend =
    {
      bench = name;
      core = "frontend";
      scale = 0;
      instructions = t.Braid_rv.Translate.rv_count;
      cycles = 0;
      reps;
      wall_s;
      sample = None;
    }
  in
  let steps = (Braid_rv.Emu.run ~max_steps:rv_emu_max_steps img).Braid_rv.Emu.steps in
  (* rvemu rows only when the fixture runs long enough for per-run setup
     (decode, memory image) not to drown the per-instruction signal *)
  let rvemu =
    if steps < 10_000 then []
    else begin
      let mins =
        interleaved_min ~reps
          [
            (fun () -> ignore (Braid_rv.Emu.run ~max_steps:rv_emu_max_steps img));
            (fun () ->
              ignore (Braid_rv.Emu.run_fast ~max_steps:rv_emu_max_steps img));
          ]
      in
      List.mapi
        (fun i core ->
          {
            bench = "rvemu:" ^ fixture;
            core;
            scale = 0;
            instructions = steps;
            cycles = 0;
            reps;
            wall_s = mins.(i) *. float_of_int reps;
            sample = None;
          })
        [ "rv-interp"; "rv-compiled" ]
    end
  in
  let p =
    Suite.prepare_program ctx ~init_mem:t.Braid_rv.Translate.init_mem
      t.Braid_rv.Translate.program
  in
  (frontend :: rvemu)
  @ List.map snd (pipeline_rows ctx ~reps ~bench:name ~scale:0 p)

(* Sampled-simulation rows for one prepared benchmark: the plan (BBV
   profile + clustering) is core-independent and excluded from the timed
   region like trace preparation; each core's row times the per-core
   measurement (fast-forward, functional warm-up, representative windows)
   and carries the IPC error against the full simulation just timed. *)
let measure_sampled ctx ~reps ~scale (p : Suite.prepared) name fulls =
  let spec = Braid_sample.Spec.default in
  List.map2
    (fun (cfg : U.Config.t) (full : U.Pipeline.result) ->
      let plan = Suite.plan ctx p ~spec cfg.U.Config.kind in
      let s, wall_s =
        timed reps (fun () ->
            Braid_sample.Driver.measure ~warm_data:p.Suite.warm_data plan cfg)
      in
      let r = s.Braid_sample.Driver.result in
      {
        bench = "sample:" ^ name;
        core = core_name cfg;
        scale;
        instructions = r.U.Pipeline.instructions;
        cycles = r.U.Pipeline.cycles;
        reps;
        wall_s;
        sample =
          Some
            {
              ipc_full = full.U.Pipeline.ipc;
              ipc_sampled = s.Braid_sample.Driver.ipc;
              ipc_error = Braid_sample.Driver.error_vs ~full s;
            };
      })
    cores fulls

let measure ctx ~scale ~reps ~benches =
  if reps <= 0 then invalid_arg "Perf.measure: reps must be positive";
  List.concat_map
    (fun name ->
      if is_rv name then measure_rv ctx ~reps name
      else
        let p = Suite.prepare ctx ~scale (Spec.find name) in
        let fulls, rows =
          List.split (pipeline_rows ctx ~reps ~bench:name ~scale p)
        in
        rows
        @ measure_emu ~reps ~scale p name
        @ measure_sampled ctx ~reps ~scale p name fulls)
    benches

(* --- BENCH_*.json --- *)

let schema = "braidsim-perf/2"

let accepted_schemas = [ "braidsim-perf/1"; schema ]

(* Baseline lookup from a previous BENCH_*.json, parsed with the in-tree
   minimal JSON parser: (bench, core) -> sim_cycles_per_s. Accepts both
   the current schema and /1 (whose entries simply lack the per-entry
   scale and sampling fields). *)
type baseline = (string * string, float) Hashtbl.t

let load_baseline file : baseline =
  let ic = open_in file in
  let doc =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.parse doc with
  | Error msg -> failwith (Printf.sprintf "%s: not valid JSON: %s" file msg)
  | Ok j -> (
      let module J = Json in
      let tbl = Hashtbl.create 32 in
      let field name = function
        | J.Obj fields -> List.assoc_opt name fields
        | _ -> None
      in
      let str = function Some (J.Str s) -> Some s | _ -> None in
      let num = function Some (J.Num x) -> Some x | _ -> None in
      (match str (field "schema" j) with
      | Some s when not (List.mem s accepted_schemas) ->
          failwith
            (Printf.sprintf "%s: unsupported schema %S (accepted: %s)" file s
               (String.concat ", " accepted_schemas))
      | _ -> ());
      match field "entries" j with
      | Some (J.Arr entries) ->
          List.iter
            (fun e ->
              match
                ( str (field "bench" e),
                  str (field "core" e),
                  num (field "sim_cycles_per_s" e) )
              with
              | Some b, Some c, Some v -> Hashtbl.replace tbl (b, c) v
              | _ -> ())
            entries;
          tbl
      | _ -> failwith (Printf.sprintf "%s: missing \"entries\" array" file))

let json_of_entry ?baseline e =
  let speedup =
    match baseline with
    | None -> []
    | Some tbl -> (
        match Hashtbl.find_opt tbl (e.bench, e.core) with
        | Some prev when prev > 0.0 ->
            [ ("speedup_vs_baseline", Json.float_lit (sim_cycles_per_s e /. prev)) ]
        | Some _ | None -> [])
  in
  let sample =
    match e.sample with
    | None -> []
    | Some s ->
        [
          ("ipc_full", Json.float_lit s.ipc_full);
          ("ipc_sampled", Json.float_lit s.ipc_sampled);
          ("ipc_error", Json.float_lit s.ipc_error);
        ]
  in
  Json.obj_lit
    ([
       ("bench", Json.escape_string e.bench);
       ("core", Json.escape_string e.core);
       ("scale", string_of_int e.scale);
       ("instructions", string_of_int e.instructions);
       ("cycles", string_of_int e.cycles);
       ("reps", string_of_int e.reps);
       ("wall_s", Json.float_lit e.wall_s);
       ("sim_cycles_per_s", Json.float_lit (sim_cycles_per_s e));
       ("sim_instrs_per_s", Json.float_lit (sim_instrs_per_s e));
     ]
    @ sample @ speedup)

let to_json ?baseline ~scale ~reps entries =
  let total_wall =
    List.fold_left (fun acc e -> acc +. e.wall_s) 0.0 entries
  in
  let total_cycles =
    List.fold_left
      (fun acc e -> acc +. (float_of_int e.cycles *. float_of_int e.reps))
      0.0 entries
  in
  Json.obj_lit
    [
      ("schema", Json.escape_string schema);
      ("scale", string_of_int scale);
      ("reps", string_of_int reps);
      ("entries", Json.list_lit (json_of_entry ?baseline) entries);
      ( "totals",
        Json.obj_lit
          [
            ("wall_s", Json.float_lit total_wall);
            ( "sim_cycles_per_s",
              Json.float_lit
                (if total_wall <= 0.0 then 0.0 else total_cycles /. total_wall)
            );
          ] );
    ]
  ^ "\n"

let write_json ?baseline ~file ~scale ~reps entries =
  let doc = to_json ?baseline ~scale ~reps entries in
  if file = "-" then print_string doc
  else begin
    let oc = open_out file in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc doc)
  end

let render entries =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-14s %-17s %11s %9s %9s %14s %9s\n" "bench" "core"
       "cycles" "reps" "wall_s" "sim-cycles/s" "ipc-err");
  List.iter
    (fun e ->
      let err =
        match e.sample with
        | None -> ""
        | Some s -> Printf.sprintf "%8.2f%%" (100.0 *. s.ipc_error)
      in
      Buffer.add_string b
        (Printf.sprintf "%-14s %-17s %11d %9d %9.3f %14.0f %9s\n" e.bench
           e.core e.cycles e.reps e.wall_s (sim_cycles_per_s e) err))
    entries;
  Buffer.contents b

module Config = Braid_uarch.Config

type prepared = {
  init_mem : (int * int64) list;
  warm_data : int list;
  virtual_ir : Program.t;
  conventional : Braid_core.Extalloc.result;
  braid : Braid_core.Transform.report;
  max_steps : int;
  key : string;
}

let default_scale =
  match Sys.getenv_opt "BRAID_SCALE" with
  | None -> 12_000
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> max 1000 n
      | None ->
          Printf.eprintf
            "braid: ignoring malformed BRAID_SCALE=%S (expected an integer); \
             using %d\n%!"
            s 12_000;
          12_000)

(* A program and its memory image with a digest of both: the blocks and
   entry, not the program's memoised base table, which a run fills in. A
   generated workload is digested once, when it is generated. *)
type source = {
  program : Program.t;
  image : (int * int64) list;
  digest : string;
}

type 'v slot = Ready of 'v | In_flight

type ctx = {
  lock : Mutex.t;
  done_ : Condition.t;
  workloads : (string, source slot) Hashtbl.t;
  prepared : (string, prepared slot) Hashtbl.t;
  traces : (string, Trace.t slot) Hashtbl.t;
  runs : (string, Braid_uarch.Pipeline.result slot) Hashtbl.t;
  plans : (string, Braid_sample.Driver.plan slot) Hashtbl.t;
  samples : (string, Braid_sample.Driver.t slot) Hashtbl.t;
  sample : Braid_sample.Spec.t option;
}

let create_ctx ?sample () =
  {
    lock = Mutex.create ();
    done_ = Condition.create ();
    workloads = Hashtbl.create 64;
    prepared = Hashtbl.create 64;
    traces = Hashtbl.create 64;
    runs = Hashtbl.create 256;
    plans = Hashtbl.create 64;
    samples = Hashtbl.create 256;
    sample;
  }

let sampling ctx = ctx.sample

(* Look up under the lock; on a miss, mark the key in-flight and compute
   *outside* the lock (simulations are long and must overlap across
   domains). A domain that finds the key in-flight blocks on the condition
   variable rather than duplicating the work; every caller shares one
   physical value. Nesting only flows one way (preparations force
   workloads, runs force traces, samples force plans; never the reverse),
   so waiting cannot deadlock. If the computation raises, the in-flight
   marker is withdrawn and a waiter takes over. *)
let rec memoise : 'v. ctx -> (string, 'v slot) Hashtbl.t -> string -> (unit -> 'v) -> 'v =
  fun ctx tbl key compute ->
  Mutex.lock ctx.lock;
  match Hashtbl.find_opt tbl key with
  | Some (Ready v) ->
      Mutex.unlock ctx.lock;
      v
  | Some In_flight ->
      Condition.wait ctx.done_ ctx.lock;
      Mutex.unlock ctx.lock;
      memoise ctx tbl key compute
  | None -> (
      Hashtbl.replace tbl key In_flight;
      Mutex.unlock ctx.lock;
      match compute () with
      | v ->
          Mutex.lock ctx.lock;
          Hashtbl.replace tbl key (Ready v);
          Condition.broadcast ctx.done_;
          Mutex.unlock ctx.lock;
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock ctx.lock;
          Hashtbl.remove tbl key;
          Condition.broadcast ctx.done_;
          Mutex.unlock ctx.lock;
          Printexc.raise_with_backtrace e bt)

let source program image =
  let contents = (program.Program.blocks, program.Program.entry, image) in
  {
    program;
    image;
    digest =
      Digest.to_hex
        (Digest.string (Marshal.to_string contents [ Marshal.No_sharing ]));
  }

let prepare_source ctx ~max_steps ?(max_internal = Reg.num_internal)
    ?(ext_usable = Braid_core.Extalloc.usable_per_class) src =
  let ext_usable = min ext_usable Braid_core.Extalloc.usable_per_class in
  let key =
    Printf.sprintf "%s/%d/%d/%d" src.digest max_steps max_internal ext_usable
  in
  memoise ctx ctx.prepared key (fun () ->
      {
        init_mem = src.image;
        warm_data = List.map fst src.image;
        virtual_ir = src.program;
        conventional = Braid_core.Transform.conventional src.program;
        braid = Braid_core.Transform.run ~max_internal ~ext_usable src.program;
        max_steps;
        key;
      })

let prepare_program ctx ~init_mem program =
  prepare_source ctx ~max_steps:1_000_000 (source program init_mem)

let prepare ctx ?(seed = 1) ?(scale = default_scale) ?max_internal ?ext_usable
    (profile : Braid_workload.Spec.profile) =
  let src =
    memoise ctx ctx.workloads
      (Printf.sprintf "%s/%d/%d" profile.Braid_workload.Spec.name seed scale)
      (fun () ->
        let program, image = Braid_workload.Spec.generate profile ~seed ~scale in
        source program image)
  in
  prepare_source ctx ~max_steps:(50 * scale) ?max_internal ?ext_usable src

let binary p kind =
  match Config.Core_kind.binary kind with
  | `Conv -> p.conventional.Braid_core.Extalloc.program
  | `Braid -> p.braid.Braid_core.Transform.program

let binary_key p kind = p.key ^ "/" ^ Config.Core_kind.binary_name kind

(* Traces are memoised apart from the preparation: a sampled run never
   forces one, and full tracing is the expensive part of preparation (an
   order of magnitude slower than untraced emulation). *)
let trace ctx p kind =
  memoise ctx ctx.traces (binary_key p kind) (fun () ->
      let out =
        Emulator.run ~max_steps:p.max_steps ~trace:true ~init_mem:p.init_mem
          (binary p kind)
      in
      Option.get out.Emulator.trace)

let config_key (cfg : Config.t) = cfg.Config.name ^ "/" ^ Config.digest cfg

(* The plan (fast-forward + BBV + clustering) is core-independent: one
   per (binary, spec) serves every configuration. *)
let plan ctx p ~spec kind =
  let key = binary_key p kind ^ "/" ^ Braid_sample.Spec.digest spec in
  memoise ctx ctx.plans key (fun () ->
      Braid_sample.Driver.plan ~init_mem:p.init_mem ~max_steps:p.max_steps
        ~spec
        (Emulator.Compiled.compile (binary p kind)))

let sample ctx p ~spec (cfg : Config.t) =
  let kind = cfg.Config.kind in
  let key =
    String.concat "/"
      [ binary_key p kind; config_key cfg; Braid_sample.Spec.digest spec ]
  in
  memoise ctx ctx.samples key (fun () ->
      Braid_sample.Driver.measure ~warm_data:p.warm_data (plan ctx p ~spec kind)
        cfg)

let run ctx p (cfg : Config.t) =
  match ctx.sample with
  | Some spec -> (sample ctx p ~spec cfg).Braid_sample.Driver.result
  | None ->
      let kind = cfg.Config.kind in
      memoise ctx ctx.runs
        (binary_key p kind ^ "/" ^ config_key cfg)
        (fun () ->
          Braid_uarch.Pipeline.run ~warm_data:p.warm_data cfg (trace ctx p kind))

type static = {
  s_instr : Instr.t array;
  s_block : int array;
  s_offset : int array;
  s_latency : int array;
  s_flags : int array;
  s_ext_reads : int array;
  s_int_reads : int array;
  s_braid : int array;
}

let flag_load = 1
let flag_store = 2
let flag_cond_branch = 4
let flag_jump = 8
let flag_writes_ext = 16
let flag_writes_int = 32
let flag_braid_start = 64

let static_of program =
  let n = Program.num_static_instrs program in
  let bases = Program.base_table program in
  let s =
    {
      s_instr = Array.make n (Instr.make Op.Nop);
      s_block = Array.make n 0;
      s_offset = Array.make n 0;
      s_latency = Array.make n 0;
      s_flags = Array.make n 0;
      s_ext_reads = Array.make n 0;
      s_int_reads = Array.make n 0;
      s_braid = Array.make n (-1);
    }
  in
  Program.iter_instrs
    (fun blk off (ins : Instr.t) ->
      let ip = bases.(blk.Program.id) + off in
      let op = ins.Instr.op in
      let flag b f = if b then f else 0 in
      s.s_instr.(ip) <- ins;
      s.s_block.(ip) <- blk.Program.id;
      s.s_offset.(ip) <- off;
      s.s_latency.(ip) <- Op.latency op;
      s.s_flags.(ip) <-
        flag (Op.is_load op) flag_load
        lor flag (Op.is_store op) flag_store
        lor flag (match op with Op.Branch _ -> true | _ -> false) flag_cond_branch
        lor flag (match op with Op.Jump _ -> true | _ -> false) flag_jump
        lor flag (Instr.writes_external ins) flag_writes_ext
        lor flag (Instr.writes_internal ins) flag_writes_int
        lor flag ins.Instr.annot.Instr.braid_start flag_braid_start;
      s.s_ext_reads.(ip) <- Instr.reads_external_count ins;
      s.s_int_reads.(ip) <-
        List.length
          (List.filter (fun (r : Reg.t) -> r.Reg.space = Reg.Intern) (Instr.uses ins));
      s.s_braid.(ip) <- ins.Instr.annot.Instr.braid_id)
    program;
  s

let bit_taken = 1
let bit_fault = 2
let bit_braid_start = 4

type stop_reason = Halted | Steps_exhausted

type dep_tables = {
  child_off : int array;
  child_uid : int array;
  child_via : Bytes.t;
  last_ext_reader : int array;
  conflict_store : int array;
}

type t = {
  program : Program.t;
  static : static;
  sidx : int array;
  addr : int array;
  bits : Bytes.t;
  dep_off : int array;
  dep_uid : int array;
  dep_via : Bytes.t;
  next_ip : int;
  stop : stop_reason;
  mutable warm_lines : int array option;  (* memo: distinct I-lines *)
  mutable tables : dep_tables option;  (* memo: {!dep_tables} *)
}

let length t = Array.length t.sidx

let flags t u = t.static.s_flags.(t.sidx.(u))
let has_flag t u f = flags t u land f <> 0
let has_bit t u b = Char.code (Bytes.get t.bits u) land b <> 0

let pc t u = 4 * t.sidx.(u)
let block_id t u = t.static.s_block.(t.sidx.(u))
let offset t u = t.static.s_offset.(t.sidx.(u))
let instr t u = t.static.s_instr.(t.sidx.(u))
let latency t u = t.static.s_latency.(t.sidx.(u))
let addr t u = t.addr.(u)
let is_load t u = has_flag t u flag_load
let is_store t u = has_flag t u flag_store
let is_cond_branch t u = has_flag t u flag_cond_branch
let is_branch t u = has_flag t u (flag_cond_branch lor flag_jump)
let writes_ext t u = has_flag t u flag_writes_ext
let writes_int t u = has_flag t u flag_writes_int
let ext_src_reads t u = t.static.s_ext_reads.(t.sidx.(u))
let int_src_reads t u = t.static.s_int_reads.(t.sidx.(u))
let braid_id t u = t.static.s_braid.(t.sidx.(u))
let braid_start t u = has_bit t u bit_braid_start
let taken t u = has_bit t u bit_taken
let faulting t u = has_bit t u bit_fault

let next_pc t u =
  if u + 1 < length t then pc t (u + 1)
  else if t.next_ip < 0 then pc t u
  else 4 * t.next_ip

let iter_deps t u f =
  for k = t.dep_off.(u) to t.dep_off.(u + 1) - 1 do
    f t.dep_uid.(k) (Bytes.get t.dep_via k <> '\000')
  done

let deps t u =
  List.init (t.dep_off.(u + 1) - t.dep_off.(u)) (fun i ->
      let k = t.dep_off.(u) + i in
      (t.dep_uid.(k), Bytes.get t.dep_via k <> '\000'))

let of_steps program steps =
  let static = static_of program in
  let n = Array.length steps in
  let dep_off = Array.make (n + 1) 0 in
  Array.iteri
    (fun u (_, _, deps) -> dep_off.(u + 1) <- dep_off.(u) + List.length deps)
    steps;
  let all = Array.of_list (List.concat_map (fun (_, _, d) -> d) (Array.to_list steps)) in
  let sidx = Array.map (fun (ip, _, _) -> ip) steps in
  {
    program;
    static;
    sidx;
    addr = Array.map (fun (_, a, _) -> a) steps;
    bits =
      Bytes.init n (fun u ->
          if static.s_flags.(sidx.(u)) land flag_braid_start <> 0 then
            Char.chr bit_braid_start
          else '\000');
    dep_off;
    dep_uid = Array.map fst all;
    dep_via = Bytes.init (Array.length all) (fun k -> if snd all.(k) then '\001' else '\000');
    next_ip = -1;
    stop = Halted;
    warm_lines = None;
    tables = None;
  }

let warm_lines t =
  match t.warm_lines with
  | Some a -> a
  | None ->
      (* distinct 64-byte instruction lines in first-touch order (the
         order matters: cache warm-up replays them against LRU state);
         16 static instructions share a line *)
      let seen = Bytes.make ((Array.length t.static.s_flags / 16) + 1) '\000' in
      let acc = ref [] in
      Array.iter
        (fun ip ->
          let l = ip lsr 4 in
          if Bytes.get seen l = '\000' then begin
            Bytes.set seen l '\001';
            acc := (4 * ip) land lnot 63 :: !acc
          end)
        t.sidx;
      let a = Array.of_list (List.rev !acc) in
      t.warm_lines <- Some a;
      a

let dep_tables t =
  match t.tables with
  | Some tb -> tb
  | None ->
      let n = length t in
      let dep_off = t.dep_off and dep_uid = t.dep_uid and dep_via = t.dep_via in
      let total = dep_off.(n) in
      (* consumers (children) per producer, counted into [child_off.(p+1)]
         and prefix-summed; the fill below advances [child_off.(p)] as its
         cursor, which leaves every offset shifted down by one slot *)
      let child_off = Array.make (n + 1) 0 in
      for k = 0 to total - 1 do
        let p = dep_uid.(k) in
        child_off.(p + 1) <- child_off.(p + 1) + 1
      done;
      for i = 1 to n do
        child_off.(i) <- child_off.(i) + child_off.(i - 1)
      done;
      let child_uid = Array.make total 0 in
      let child_via = Bytes.make total '\000' in
      let last_ext_reader = Array.make n (-1) in
      (* youngest older same-address store per load, -1 = none *)
      let conflict_store = Array.make n (-1) in
      let last_store = Hashtbl.create 256 in
      let sflags = t.static.s_flags and sidx = t.sidx and addr = t.addr in
      for i = 0 to n - 1 do
        for k = dep_off.(i) to dep_off.(i + 1) - 1 do
          let p = dep_uid.(k) in
          let c = child_off.(p) in
          child_uid.(c) <- i;
          if Bytes.get dep_via k <> '\000' then Bytes.set child_via c '\001'
          else last_ext_reader.(p) <- i;
          child_off.(p) <- c + 1
        done;
        let f = sflags.(sidx.(i)) in
        if f land flag_load <> 0 then (
          match Hashtbl.find_opt last_store addr.(i) with
          | Some su -> conflict_store.(i) <- su
          | None -> ());
        if f land flag_store <> 0 then Hashtbl.replace last_store addr.(i) i
      done;
      for i = n downto 1 do
        child_off.(i) <- child_off.(i - 1)
      done;
      child_off.(0) <- 0;
      let tb = { child_off; child_uid; child_via; last_ext_reader; conflict_store } in
      t.tables <- Some tb;
      tb

(* The compact trace: windows of a compiled run reproduce the matching
   slices of the full trace, and a trace stays within its memory budget
   (live words and allocation per instruction — deterministic counts, so
   they gate regressions where wall time cannot). *)

module W = Braid_workload
module C = Braid_core
module Suite = Braid_sim.Suite

let binaries bench ~scale =
  let program, init_mem = W.Spec.generate (W.Spec.find bench) ~seed:1 ~scale in
  ( init_mem,
    [
      ("conv", (C.Transform.conventional program).C.Extalloc.program);
      ("braid", (C.Transform.run program).C.Transform.program);
    ] )

(* Consecutive windows of uneven lengths over one compiled run, against
   the full trace of the same binary: same static index, address, taken
   and fault bits per entry; the same producers, less those before the
   window; and the braid start bit, promoted on a window's first entry
   when that entry lies inside a braid. *)
let test_window_equivalence () =
  List.iter
    (fun bench ->
      let init_mem, bins = binaries bench ~scale:3000 in
      List.iter
        (fun (bin_name, bin) ->
          let name = bench ^ "/" ^ bin_name in
          let full =
            Option.get (Emulator.run ~max_steps:150_000 ~init_mem bin).Emulator.trace
          in
          let n = Trace.length full in
          let run = Emulator.Compiled.start ~init_mem (Emulator.Compiled.compile bin) in
          let lengths = [| 997; 1; 2500; 64; 4096 |] in
          let at = ref 0 and k = ref 0 in
          let stop = ref Trace.Steps_exhausted in
          while !at < n do
            let w =
              Emulator.Compiled.trace_window run
                ~max_steps:lengths.(!k mod Array.length lengths)
            in
            incr k;
            let o = !at in
            let len = Trace.length w in
            if len = 0 then Alcotest.failf "%s: empty window at %d of %d" name o n;
            for u = 0 to len - 1 do
              let g = o + u in
              let same what a b =
                if a <> b then
                  Alcotest.failf "%s: window at %d, entry %d: %s differs" name o u
                    what
              in
              same "static index" (Trace.pc w u) (Trace.pc full g);
              same "address" (Trace.addr w u) (Trace.addr full g);
              same "taken" (Trace.taken w u) (Trace.taken full g);
              same "fault" (Trace.faulting w u) (Trace.faulting full g);
              same "braid start" (Trace.braid_start w u)
                (Trace.braid_start full g
                || (u = 0 && Trace.braid_id full g >= 0));
              if
                Trace.deps w u
                <> List.filter_map
                     (fun (p, via) -> if p >= o then Some (p - o, via) else None)
                     (Trace.deps full g)
              then
                Alcotest.failf "%s: window at %d, entry %d: producers differ" name o
                  u
            done;
            at := o + len;
            stop := w.Trace.stop
          done;
          Alcotest.(check int) (name ^ ": windows cover the run") n !at;
          Alcotest.(check bool) (name ^ ": same stop") true (!stop = full.Trace.stop);
          Alcotest.(check int) (name ^ ": same step count") n
            (Emulator.Compiled.steps run))
        bins)
    [ "gzip"; "mcf"; "swim"; "crafty" ]

(* Words [f] allocates. The minor heap is emptied on both sides: the
   runtime's counters can otherwise charge the measured region with young
   words allocated before it, when it triggers the collection. *)
let allocated_words f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r = f () in
  Gc.minor ();
  (r, (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8))

(* Budgets of the struct-of-arrays trace: at most 12 live words per entry
   (static index, address, producer offsets and uids, bytes of bits), and
   at most 20 words allocated per entry by tracing plus the consumer
   tables. The boxed-record trace this layout replaced held ~30 live words
   and allocated ~150. *)
let test_footprint () =
  List.iter
    (fun bench ->
      let init_mem, bins = binaries bench ~scale:Suite.default_scale in
      List.iter
        (fun (bin_name, bin) ->
          let name = bench ^ "/" ^ bin_name in
          let trace, trace_words =
            allocated_words (fun () ->
                Option.get
                  (Emulator.run ~max_steps:(50 * Suite.default_scale) ~trace:true
                     ~init_mem bin)
                    .Emulator.trace)
          in
          let n = float_of_int (Trace.length trace) in
          let live =
            float_of_int
              (Obj.reachable_words (Obj.repr trace)
              - Obj.reachable_words (Obj.repr trace.Trace.program))
            /. n
          in
          if live > 12.0 then
            Alcotest.failf "%s: trace holds %.1f live words/instr > 12" name live;
          let _, deps_words = allocated_words (fun () -> Trace.dep_tables trace) in
          let alloc = (trace_words +. deps_words) /. n in
          if alloc > 20.0 then
            Alcotest.failf "%s: tracing + dep_tables allocate %.1f words/instr > 20"
              name alloc;
          Printf.printf "%s: %.0f instructions, %.2f live and %.2f allocated words each\n"
            name n live alloc)
        bins)
    [ "gzip"; "swim" ]

let suite =
  ( "trace",
    [
      Alcotest.test_case "windows reproduce the full trace" `Quick
        test_window_equivalence;
      Alcotest.test_case "footprint per instruction" `Quick test_footprint;
    ] )

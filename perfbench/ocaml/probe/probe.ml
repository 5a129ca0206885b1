(* Host-speed probe for the benchmark harness.

   A fixed kernel built only on the standard library, so no change to the
   simulator changes its cost. It mixes what the simulator spends its time
   on: small short-lived allocations, array and hash-table traffic, and a
   working set larger than the caches. The harness times it between
   measured requests and scales their wall times by it, so a stretch where
   the host runs slower moves the probe and the request alike.

   Usage: probe.exe *)

let () =
  let n = 1 lsl 18 in
  let a = Array.init n (fun i -> (i * 7919 + 31) land 0xfffff) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  Array.iter
    (fun x ->
      Hashtbl.replace h (x land 0xffff) x;
      acc := !acc + x)
    a;
  let l = List.init 120_000 (fun i -> (i, float_of_int i)) in
  acc := !acc + List.length (List.filter (fun (i, _) -> i land 1 = 0) l);
  Printf.printf "%d\n" !acc

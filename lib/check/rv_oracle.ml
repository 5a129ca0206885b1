(* Differential oracle for the RV frontend: the reference emulator on raw
   RV words against the IR emulator on the translated program, then the
   full compiler/core oracle on the same translated program. *)

module Rv = Braid_rv

type finding = { kind : string; detail : string }

type report = {
  name : string;
  rv_dynamic : int;
  ir_dynamic : int;
  output : string;
  exit_code : int option;
  findings : finding list;
  core : Oracle.report;
}

let ok r = r.findings = [] && Oracle.ok r.core

let inconclusive_prefix = "inconclusive"
let no_core_report = { Oracle.divergences = []; cores = []; dynamic_count = 0 }

let check ?cores ?(max_steps = 1_000_000) (img : Rv.Image.t) =
  match Rv.Translate.run img with
  | Error e -> Error e
  | Ok t -> (
      let rv = Rv.Emu.run ~max_steps img in
      let report ~ir_dynamic findings core =
        {
          name = img.Rv.Image.name;
          rv_dynamic = rv.Rv.Emu.steps;
          ir_dynamic;
          output = rv.Rv.Emu.output;
          exit_code =
            (match rv.Rv.Emu.stop with Rv.Emu.Exited c -> Some c | _ -> None);
          findings;
          core;
        }
      in
      match rv.Rv.Emu.stop with
      | Rv.Emu.Out_of_fuel ->
          (* The reference stopped at an arbitrary point of the program,
             where no IR budget lands the translated run too: comparing
             their states (or running the cores on a program that does not
             halt) would list differences between two different points of
             one execution. The run is not verified — say so, once. *)
          Ok
            (report ~ir_dynamic:0
               [
                 {
                   kind = "rv-stop";
                   detail =
                     Printf.sprintf
                       "%s: the reference did not halt within its budget of \
                        %d steps, so nothing was compared"
                       inconclusive_prefix max_steps;
                 };
               ]
               no_core_report)
      | _ ->
          (* the IR gets 16x the reference budget to absorb lowering expansion *)
          let ir_steps = max_steps * 16 in
          let ir =
            Emulator.run ~max_steps:ir_steps ~trace:false t.Rv.Translate.program
              ~init_mem:t.Rv.Translate.init_mem
          in
          let findings = ref [] in
          let add kind detail = findings := { kind; detail } :: !findings in
          (match rv.Rv.Emu.stop with
          | Rv.Emu.Exited _ | Rv.Emu.Break -> ()
          | stop -> add "rv-stop" (Rv.Emu.stop_to_string stop));
          (match ir.Emulator.stop with
          | Trace.Halted -> ()
          | Trace.Steps_exhausted -> add "ir-stop" "translated run exhausted its step budget");
          for n = 1 to 31 do
            let want = rv.Rv.Emu.regs.(n) in
            let got = Rv.Translate.read_x ir.Emulator.state n in
            if want <> got then
              add "reg" (Printf.sprintf "x%d: reference 0x%08x, translated 0x%08x" n want got)
          done;
          let ir_image = Rv.Translate.rv_image_of_state ir.Emulator.state in
          if ir_image <> rv.Rv.Emu.image then begin
            (* Report the first differing address, not the whole images. *)
            let rec first_diff a b =
              match (a, b) with
              | [], [] -> None
              | (addr, v) :: _, [] -> Some (addr, Some v, None)
              | [], (addr, v) :: _ -> Some (addr, None, Some v)
              | (aa, av) :: a', (ba, bv) :: b' ->
                  if aa = ba && av = bv then first_diff a' b'
                  else if aa <= ba then Some (aa, Some av, List.assoc_opt aa b)
                  else Some (ba, List.assoc_opt ba a, Some bv)
            in
            let show = function Some v -> Printf.sprintf "0x%08x" v | None -> "absent" in
            match first_diff ir_image rv.Rv.Emu.image with
            | None -> ()
            | Some (addr, ir_v, rv_v) ->
                add "memory"
                  (Printf.sprintf "word 0x%x: reference %s, translated %s" addr (show rv_v)
                     (show ir_v))
          end;
          let core =
            Oracle.check ?cores ~max_steps:ir_steps t.Rv.Translate.program
              ~init_mem:t.Rv.Translate.init_mem
          in
          Ok (report ~ir_dynamic:ir.Emulator.dynamic_count (List.rev !findings) core))

let render r =
  let b = Buffer.create 256 in
  let inconclusive =
    List.exists
      (fun f ->
        f.kind = "rv-stop"
        && String.starts_with ~prefix:inconclusive_prefix f.detail)
      r.findings
  in
  Buffer.add_string b
    (Printf.sprintf "rv-oracle %s: %s (%d rv / %d ir instructions)\n" r.name
       (if ok r then "ok" else if inconclusive then "INCONCLUSIVE" else "DIVERGED")
       r.rv_dynamic r.ir_dynamic);
  List.iter
    (fun f -> Buffer.add_string b (Printf.sprintf "  [%s] %s\n" f.kind f.detail))
    r.findings;
  if not (Oracle.ok r.core) then Buffer.add_string b (Oracle.render r.core);
  Buffer.contents b

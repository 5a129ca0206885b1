(* Reference outputs for the benchmark harness.

   Reads braidsim-api/1 requests, one JSON document per line, executes
   each through Exec.exec (the engine behind both the one-shot CLI and the
   daemon) in a fresh one-shot environment, and writes the terminal
   response frame of each request on its own line. The harness compares
   what the CLI printed or the daemon served against these frames.

   Usage: refexec.exe REQUESTS OUT *)

module Api = Braid_api

let frame_of id line =
  match Api.Request.of_json line with
  | Error message -> Api.Response.Failed { id; message }
  | Ok request -> (
      match Api.Exec.exec (Api.Exec.one_shot_env ()) request with
      | Ok payload -> Api.Response.Done { id; payload }
      | Error message -> Api.Response.Failed { id; message })

let () =
  match Sys.argv with
  | [| _; input; output |] ->
      let ic = open_in input and oc = open_out output in
      let rec loop id =
        match input_line ic with
        | exception End_of_file -> ()
        | line ->
            output_string oc (Api.Response.to_json (frame_of id line));
            output_char oc '\n';
            loop (id + 1)
      in
      loop 0;
      close_in ic;
      close_out oc
  | _ ->
      prerr_endline "usage: refexec REQUESTS OUT";
      exit 2

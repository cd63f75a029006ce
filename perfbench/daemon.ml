(* A [sqlpl serve --preload] daemon in its own process, on a Unix socket
   inside the checkout. [start] returns once the daemon has printed its
   "serving on" line, which it does after every shipped dialect is
   resident; [stop] sends SIGTERM and waits for the process to end. *)

type t = { pid : int; out : in_channel; address : Service.Wire.address }

let run_dir = ".perfbench"

let ensure_run_dir () =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755

let counter = ref 0

let start ~sqlpl =
  ensure_run_dir ();
  incr counter;
  let path =
    Printf.sprintf "%s/serve-%d-%d.sock" run_dir (Unix.getpid ()) !counter
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process sqlpl
      [| sqlpl; "serve"; "--unix"; path; "--preload"; "--workers"; "2" |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let out = Unix.in_channel_of_descr rd in
  let t = { pid; out; address = Service.Wire.Unix_socket path } in
  let rec await () =
    match input_line out with
    | line when String.starts_with ~prefix:"sqlpl: serving on " line -> ()
    | _ -> await ()
    | exception End_of_file ->
      ignore (Unix.waitpid [] pid);
      close_in_noerr out;
      failwith "sqlpl serve exited before serving"
  in
  await ();
  t

let peak_rss_mb t = Trace.status_mb ~pid:t.pid "VmHWM"

let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (* Drain the daemon's exit message so it never blocks on a full pipe. *)
  (try
     while true do
       ignore (input_line t.out)
     done
   with End_of_file | Sys_error _ -> ());
  ignore (Unix.waitpid [] t.pid);
  close_in_noerr t.out

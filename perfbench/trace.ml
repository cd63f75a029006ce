(* Monotonic clock, in-memory spans and summary statistics.

   Every time the benchmark takes comes from [Monotonic_clock.now]
   (CLOCK_MONOTONIC, ns). Spans are recorded by the benchmark around its
   calls into the program's public functions; they stay in memory and are
   written out once, when the run ends. *)

let now () = Monotonic_clock.now ()
let ns_between a b = Int64.to_float (Int64.sub b a)
let ns_since t0 = ns_between t0 (now ())

type span = {
  id : int;
  name : string;
  start : int64;
  stop : int64;
  parent : int;  (** id of the enclosing span, -1 for a root *)
  op : int;  (** operation the span belongs to *)
  meta : (string * float) list;  (** counts taken at the same boundary *)
}

let duration s = ns_between s.start s.stop

(* Client threads of the serving workload share one trace. *)
type t = { mutable spans : span list; mutable next : int; lock : Mutex.t }

let create () = { spans = []; next = 0; lock = Mutex.create () }

(* [span tr ~name ~op f] times [f ()] as one span. [f] receives the span's
   id, for the children it opens, and returns its result together with the
   counts to attach. *)
let span tr ?(parent = -1) ~op name f =
  let id = Mutex.protect tr.lock (fun () -> tr.next <- tr.next + 1; tr.next) in
  let start = now () in
  let r, meta = f id in
  let stop = now () in
  Mutex.protect tr.lock (fun () ->
      tr.spans <- { id; name; start; stop; parent; op; meta } :: tr.spans);
  r

let spans tr = List.rev tr.spans
let named tr name = List.filter (fun s -> s.name = name) (spans tr)

let meta s key = try List.assoc key s.meta with Not_found -> 0.

let total_ns tr name =
  List.fold_left (fun acc s -> acc +. duration s) 0. (named tr name)

let total_meta tr name key =
  List.fold_left (fun acc s -> acc +. meta s key) 0. (named tr name)

let count tr name = List.length (named tr name)

let write tr path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"parent\":%d,\"op\":%d%s}\n"
        s.id s.name s.start s.stop s.parent s.op
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf ",%S:%.17g" k v) s.meta)))
    (spans tr);
  close_out oc

(* --- statistics ------------------------------------------------------- *)

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = truncate pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* A size line of a process's status file, in MiB: "VmHWM" is the peak
   resident set, "VmRSS" the current one. *)
let status_mb ?pid field =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let prefix = field ^ ":" in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix line ->
      let n = String.length prefix in
      Scanf.sscanf
        (String.sub line n (String.length line - n))
        " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

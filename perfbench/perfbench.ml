(* The repository's benchmark: four seeded workloads against the public API.

   perfbench --workload W --seed N --seconds S --trace 0|1 --sqlpl PATH

   With --trace 0 a run prints the end-to-end metrics of workload W; with
   --trace 1 it prints the per-layer metrics of a traced run, its tracing
   overhead and the reconciliation of independently timed layers against
   the untraced operation time. The last line of standard output is one
   JSON object: {"correct", "attempted", "failed", "metrics"}. See
   README.md. *)

let t_process = Trace.now ()
let pr fmt = Printf.printf (fmt ^^ "%!")
let err fmt = Printf.eprintf (fmt ^^ "%!")

(* --- command line ------------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let traced = ref 0
let sqlpl = ref ""

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "gen-churn|parse-committed|parse-fallback|serve-mix");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int traced, "0|1 traced run");
      ("--sqlpl", Arg.Set_string sqlpl, "PATH sqlpl executable (serve)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1 --sqlpl PATH"

let seed = !seed
let budget_ns = float_of_int !seconds *. 1e9
let traced = !traced = 1

(* --- outcome bookkeeping --------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;  (** error, error frame, I/O error or wrong output *)
  mutable wrong : int;  (** output that disagreed with its oracle *)
}

let tally () = { attempted = 0; failed = 0; wrong = 0 }

let record t ok_or_wrong =
  t.attempted <- t.attempted + 1;
  match ok_or_wrong with
  | `Ok -> ()
  | `Error -> t.failed <- t.failed + 1
  | `Wrong ->
    t.failed <- t.failed + 1;
    t.wrong <- t.wrong + 1

let merge a b =
  a.attempted <- a.attempted + b.attempted;
  a.failed <- a.failed + b.failed;
  a.wrong <- a.wrong + b.wrong

(* [in_child f] runs [f] in a forked copy of this process and returns its
   result, which must be plain data. What [f] allocates never enters this
   process's heap or resident set: the oracles run there, so the benchmark
   process's peak resident set is the program's. *)
let in_child f =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc (r : (_, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r =
      Fun.protect
        ~finally:(fun () ->
          close_in_noerr ic;
          ignore (Unix.waitpid [] pid))
        (fun () -> (Marshal.from_channel ic : (_, string) result))
    in
    match r with Ok v -> v | Error msg -> failwith msg)

(* setup_s is the median of [setup_reps] set-ups: the one whose result the
   run keeps, timed from [since] (process start unless the workload's
   set-up starts later), and the others each in a forked child (which
   releases what it set up), so they leave nothing resident here. A traced
   run sets up once. *)
let setup_reps = if traced then 1 else 3

let repeated_setup ?(since = t_process) ~release f =
  let v = f () in
  let first = Trace.ns_since since in
  let others =
    List.init (setup_reps - 1) (fun _ ->
        in_child (fun () ->
            let t0 = Trace.now () in
            let v = f () in
            let dt = Trace.ns_since t0 in
            release v;
            dt))
  in
  (v, Trace.median (first :: others) /. 1e9)

(* Whole rounds of the same operations until the measured time is spent:
   the share of failed operations never depends on where the clock
   stopped. *)
let until_spent round =
  let start = Trace.now () in
  let rec go () =
    round ();
    if Trace.ns_since start < budget_ns then go ()
  in
  go ()

let ms ns = ns /. 1e6

(* --- tracing ------------------------------------------------------------------ *)

let tr = Trace.create ()
let next_op = ref 0

let fresh_op () =
  incr next_op;
  !next_op

(* Whether [span] records. A traced run turns it on for its traced rounds
   only; its untraced rounds run the very same code with it off. *)
let tracing = ref false

(* [span ~op name f] is [f]'s result; while tracing, [f] is also recorded
   as one span with the counts it returns. [f] receives the span's id, for
   the children it opens. *)
let span ?(on = !tracing) ?parent ~op name f =
  if on then Trace.span tr ?parent ~op name f else fst (f (-1))

let with_tracing f =
  tracing := true;
  Fun.protect ~finally:(fun () -> tracing := false) f

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The four stages [Core.generate] runs, each timed as a span under one
   "gen_op" span. Only traced runs call it. *)
let trace_generate label config =
  let op = fresh_op () in
  Trace.span tr ~op "gen_op" (fun parent ->
      let span name f = Trace.span tr ~parent ~op name f in
      match span "compose" (fun _ -> (Sql.Model.compose config, [])) with
      | Error e ->
        Fmt.failwith "compose %s: %a" label Compose.Composer.pp_error e
      | Ok out ->
        let scanner =
          span "scanner_gen" (fun _ ->
              (Lexing_gen.Scanner.create out.Compose.Composer.tokens, []))
        in
        let factored =
          span "factor" (fun _ ->
              (fst (Grammar.Factor.normalize out.Compose.Composer.grammar), []))
        in
        span "parser_gen" (fun _ ->
            let w0 = allocated_words () in
            match
              Parser_gen.Engine.generate
                ~interner:(Lexing_gen.Scanner.interner scanner)
                factored
            with
            | Error e ->
              Fmt.failwith "generate %s: %a" label Parser_gen.Engine.pp_gen_error
                e
            | Ok p ->
              let w = allocated_words () -. w0 in
              let s = Parser_gen.Engine.summary p in
              ( (),
                [
                  ("alloc_words", w);
                  ("fallback_points", float_of_int s.ambiguous_points);
                  ("committed_share", Parser_gen.Engine.coverage s);
                ] ));
        ((), []))

(* A shipped dialect's product; in a traced run its generation is also
   traced stage by stage. *)
let generate_dialect ?(trace = traced) (d : Dialects.Dialect.t) =
  if trace then trace_generate d.name d.config;
  Inputs.generate_dialect d

(* [Session.parse_batch] with default arguments on one batch, with GC
   counters. [prefix] keeps probe-only statements apart. *)
let batch ?on ?(prefix = "") ?parent ~op session sqls =
  span ?on ?parent ~op (prefix ^ "parse_batch") (fun _ ->
      let w0 = allocated_words () in
      let m0 = (Gc.quick_stat ()).major_collections in
      let b = Service.Session.parse_batch session sqls in
      let w = allocated_words () -. w0 in
      let m = (Gc.quick_stat ()).major_collections - m0 in
      ( b,
        [
          ("alloc_words", w);
          ("majors", float_of_int m);
          ("tokens", float_of_int b.batch_stats.tokens);
          ("stmts", float_of_int (List.length sqls));
        ] ))

(* The request layers on the path [Session.parse_batch] runs with default
   arguments, on one op's batches [(product, statements)]:
   [Core.scan_tokens], the default engine's scanner, and [Core.parse_cst],
   which is what the session runs per statement (that scanner, then the
   committed engine's dispatch, FB oracle and CST build). Each is timed
   as one span per batch, in a pass shaped like the op (every batch, results
   kept to the end, then the check), so the layers run in the op's cache
   and heap context; [Core.parse_cst] is also timed per statement and split
   by outcome. Returns whether every result agrees with Reference. *)
let layer_op ?(prefix = "") ~op batches =
  let stmts_meta stmts = ("stmts", float_of_int (List.length stmts)) in
  let scanned =
    List.map
      (fun (g, stmts) ->
        Trace.span tr ~op (prefix ^ "scan") (fun _ ->
            ( List.map (fun (s : Inputs.stmt) -> Core.scan_tokens g s.sql) stmts,
              [ stmts_meta stmts ] )))
      batches
  in
  ignore (Sys.opaque_identity scanned);
  let parsed =
    List.map
      (fun (g, stmts) ->
        Trace.span tr ~op (prefix ^ "parse_cst") (fun _ ->
            (* accepted ns, accepted, rejected ns, rejected *)
            let by = [| 0.; 0.; 0.; 0. |] in
            let rs =
              List.map
                (fun (s : Inputs.stmt) ->
                  let t0 = Trace.now () in
                  let r = Core.parse_cst g s.sql in
                  let i = if Result.is_ok r then 0 else 2 in
                  by.(i) <- by.(i) +. Trace.ns_since t0;
                  by.(i + 1) <- by.(i + 1) +. 1.;
                  r)
                stmts
            in
            ( rs,
              [
                stmts_meta stmts;
                ("accept_ns", by.(0));
                ("accepts", by.(1));
                ("reject_ns", by.(2));
                ("rejects", by.(3));
              ] )))
      batches
  in
  List.for_all2
    (fun (_, stmts) rs -> List.for_all2 Inputs.check stmts rs)
    batches parsed

let check_batch stmts (out : Service.Session.batch) =
  List.for_all2
    (fun s (it : Service.Session.item) -> Inputs.check s it.result)
    stmts out.items

(* --- generation: gen-churn ------------------------------------------------ *)

let gen_configs = 100
let gen_check_sentences = 12

type gen_item = {
  label : string;
  config : Feature.Config.t;
  checks : Inputs.stmt list;
      (** sentences sampled from the configuration's own grammar, with a
          reject after every fourth, labelled by Reference *)
}

type gen_state = {
  items : gen_item array;
  full : Service.Session.t;  (** containment oracle: the full dialect *)
}

(* The configurations, their check statements and Reference's verdicts are
   drawn in a child; here only full, the containment oracle, is generated,
   by the program. *)
let gen_setup () =
  let items =
    in_child (fun () ->
        let r = Inputs.rng seed 3 in
        let configs, left_out = Inputs.random_configs ~count:gen_configs in
        if left_out > 0 then
          pr "left out %d valid configuration(s) that do not compose\n" left_out;
        let named =
          List.map
            (fun (d : Dialects.Dialect.t) -> (d.name, d.config))
            Dialects.Dialect.all
          @ List.mapi (fun i c -> (Printf.sprintf "config-%d" i, c)) configs
        in
        Array.map
          (fun (label, config) ->
            {
              label;
              config;
              checks =
                Inputs.statements (Inputs.front label config)
                  ~seed:(Random.State.bits r) ~budget:40
                  ~count:gen_check_sentences ~reject_every:4;
            })
          (Inputs.shuffle r (Array.of_list named)))
  in
  {
    items;
    full =
      Service.Session.create (Inputs.generate_dialect Dialects.Dialect.full);
  }

let gen_inputs st =
  let sizes =
    Array.to_list
      (Array.map
         (fun i -> float_of_int (Feature.Config.cardinal i.config))
         st.items)
  in
  let checks = Array.to_list (Array.map (fun i -> i.checks) st.items) in
  pr
    "inputs %s: %d configurations, %.0f/%.0f/%.0f features \
     (min/median/max), %d check statements\n"
    (Inputs.digest
       (Array.to_list
          (Array.map
             (fun i ->
               String.concat "," (Feature.Config.to_names i.config)
               ^ ":"
               ^ String.concat ";" (Inputs.sqls i.checks))
             st.items)))
    (Array.length st.items)
    (List.fold_left Float.min infinity sizes)
    (Trace.median sizes)
    (List.fold_left Float.max 0. sizes)
    (List.length (List.concat checks))

(* A product is correct when it agrees with Reference on its own sampled
   sentences and their rejects, and full accepts every sampled sentence
   (subset containment). Returns the verdict and the token rate of the
   check batch, the first batch the fresh parser parses. A traced run then
   parses the check batch again, traced, and through the request layers,
   so both run on a parser that has parsed before. *)
let check_product st item g =
  let session = Service.Session.create g in
  let sqls = Inputs.sqls item.checks in
  let t0 = Trace.now () in
  let out = batch ~on:false ~op:0 session sqls in
  let dt = Trace.ns_since t0 in
  let layers_ok =
    (not !tracing)
    ||
    let op = fresh_op () in
    check_batch item.checks (batch ~op session sqls)
    && layer_op ~op [ (g, item.checks) ]
  in
  let sampled = List.filter (fun (s : Inputs.stmt) -> s.sampled) item.checks in
  let in_full =
    List.for_all
      (fun (it : Service.Session.item) -> Result.is_ok it.result)
      (Service.Session.parse_batch st.full (Inputs.sqls sampled)).items
  in
  ( check_batch item.checks out && in_full && layers_ok,
    float_of_int out.batch_stats.tokens /. (dt /. 1e9) )

(* --- serving oracle and probe ------------------------------------------------ *)

type batch = { stmts : Inputs.stmt list; sqls : string list }

type parse_shape = {
  dialects : Dialects.Dialect.t list;
  budget : int;  (** sampler budget: sentence length *)
  reject_every : int;  (** one reject per that many sentences, 0: none *)
  batch_tokens : int;
  ops : int;  (** operations in a round *)
}

(* [shape.ops] batches for one oracle front, sampling in chunks until
   there are enough. *)
let batches_for f ~seed ~shape =
  let rec go chunk acc =
    let acc =
      acc
      @ Inputs.statements f
          ~seed:(seed + (chunk * 7919))
          ~budget:shape.budget ~count:64 ~reject_every:shape.reject_every
    in
    let bs = Inputs.batches ~tokens:shape.batch_tokens acc in
    if List.length bs >= shape.ops then List.filteri (fun i _ -> i < shape.ops) bs
    else go (chunk + 1) acc
  in
  List.map (fun stmts -> { stmts; sqls = Inputs.sqls stmts }) (go 0 [])

let request_tokens = 480

type request = {
  dialect : string;
  req : batch;
  expected : Service.Wire.outcome list;
      (** the library result mapped through [Server.outcome_of_item] *)
  req_tokens : int;
}

type serve_oracle = {
  sessions : (string * Core.generated * Service.Session.t) array;
  requests : request array array;  (** per dialect *)
}

(* Request pools of [per_dialect] requests for each shipped dialect, their
   statements and Reference's verdicts drawn in a child. The expected reply
   items of a request are the library's results for the same statements
   mapped through [Server.outcome_of_item]; those results are checked
   against Reference once, here. *)
let serve_oracle ?trace ~per_dialect t =
  let shape =
    {
      dialects = Dialects.Dialect.all;
      budget = 40;
      reject_every = 6;
      batch_tokens = request_tokens;
      ops = per_dialect;
    }
  in
  let pools =
    in_child (fun () ->
        let r = Inputs.rng seed 5 in
        List.map
          (fun (d : Dialects.Dialect.t) ->
            batches_for
              (Inputs.front d.name d.config)
              ~seed:(Random.State.bits r) ~shape)
          shape.dialects)
  in
  let dialect (d : Dialects.Dialect.t) batches =
    let g = generate_dialect ?trace d in
    let session = Service.Session.create g in
    let request b =
      let out = Service.Session.parse_batch session b.sqls in
      if not (check_batch b.stmts out) then begin
        err "oracle %s: library disagrees with Reference\n" d.name;
        record t `Wrong
      end;
      {
        dialect = d.name;
        req = b;
        expected =
          List.map (Service.Server.outcome_of_item Service.Wire.Cst) out.items;
        req_tokens = out.batch_stats.tokens;
      }
    in
    ((d.name, g, session), Array.of_list (List.map request batches))
  in
  let per = List.map2 dialect shape.dialects pools in
  {
    sessions = Array.of_list (List.map fst per);
    requests = Array.of_list (List.map snd per);
  }

let connect_to (d : Daemon.t) name =
  match
    Service.Client.connect ~selection:(Service.Wire.Dialect name) d.address
  with
  | Ok (c, _) -> c
  | Error e -> Fmt.failwith "connect %s: %a" name Service.Wire.pp_error e

(* One request, as a span when [on], carrying the daemon's own elapsed_ns
   for it. A reply is correct when its items equal the library's. *)
let send ?on ~op client (q : request) =
  span ?on ~op "request" (fun _ ->
      match Service.Client.request client q.req.sqls with
      | Ok reply when reply.items = q.expected ->
        ( `Ok,
          [
            ("server_ns", Int64.to_float reply.stats.elapsed_ns);
            ("stmts", float_of_int (List.length q.req.sqls));
          ] )
      | Ok _ -> (`Wrong, [])
      | Error e ->
        err "request %s: %s\n" q.dialect (Fmt.str "%a" Service.Wire.pp_error e);
        (`Error, []))

(* A request served in a traced cycle, kept so the in-process layers can
   be timed on it after the loop (doing so during the loop would take CPU
   from the daemon). *)
type served = { served_op : int; served_dialect : int; served : request }

(* The in-process service layers on served requests, after the loop:
   [Server.reply_of_batch] on the library's result for the same statements
   and the [Wire] codec on that reply. At most [cap] requests, evenly
   spaced, are timed; the rendered items must equal the served ones and
   the reply must survive the codec unchanged. *)
let trace_served ?(cap = 300) t oracle samples =
  let n = List.length samples in
  let every = max 1 (n / cap) in
  List.iteri
    (fun i s ->
      if i mod every = 0 then begin
        let _, _, session = oracle.sessions.(s.served_dialect) in
        let op = s.served_op in
        let batch = Service.Session.parse_batch session s.served.req.sqls in
        let reply =
          Trace.span tr ~op "render" (fun _ ->
              (Service.Server.reply_of_batch Service.Wire.Cst op batch, []))
        in
        let bytes =
          Trace.span tr ~op "encode" (fun _ ->
              let b = Service.Wire.encode (Service.Wire.Reply reply) in
              ( b,
                [
                  ("bytes", float_of_int (String.length b));
                  ("stmts", float_of_int (List.length reply.items));
                ] ))
        in
        let decoded =
          Trace.span tr ~op "decode" (fun _ -> (Service.Wire.decode bytes, []))
        in
        record t
          (if
             reply.items = s.served.expected
             && decoded = Ok (Service.Wire.Reply reply)
           then `Ok
           else `Wrong)
      end)
    samples

(* A traced run must report every layer, so a workload that does not
   serve probes the service layers: a [sqlpl serve --preload] daemon, one
   connection per shipped dialect, four requests each. *)
let serve_probe t =
  let oracle = serve_oracle ~trace:false ~per_dialect:4 t in
  let d = Daemon.start ~sqlpl:!sqlpl in
  Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
  let samples = ref [] in
  Array.iteri
    (fun dialect (name, _, _) ->
      let client =
        Trace.span tr ~op:(fresh_op ()) "connect" (fun _ ->
            (connect_to d name, []))
      in
      Array.iter
        (fun q ->
          let op = fresh_op () in
          record t (send ~on:true ~op client q);
          samples :=
            { served_op = op; served_dialect = dialect; served = q } :: !samples)
        oracle.requests.(dialect);
      Service.Client.close client)
    oracle.sessions;
  trace_served t oracle (List.rev !samples)

(* --- per-layer metrics ------------------------------------------------------- *)

let reconcile_tolerance = 15.

(* [untraced_ns] is the mean untraced op time of the workload's own op. *)
let layer_metrics ~native ~untraced_ns =
  let n name = float_of_int (Trace.count tr name) in
  let total = Trace.total_ns tr and meta = Trace.total_meta tr in
  let mean_ms name = ms (total name /. n name) in
  let sum f names = List.fold_left (fun a x -> a +. f x) 0. names in
  let us_per_stmt names = sum total names /. sum (fun x -> meta x "stmts") names /. 1e3 in
  (* Request layers, on the same batches as the "parse_batch" spans. *)
  let scan = us_per_stmt [ "scan" ] in
  let parse = us_per_stmt [ "parse_cst" ] -. scan in
  let session = us_per_stmt [ "parse_batch" ] -. us_per_stmt [ "parse_cst" ] in
  let split ns count =
    let names = [ "parse_cst"; "probe.parse_cst" ] in
    sum (fun x -> meta x ns) names /. sum (fun x -> meta x count) names /. 1e3
  in
  (* Service layers. The in-process ones are timed on a sample of the
     requests, so each is a mean over its own spans. *)
  let server = ms (meta "request" "server_ns" /. n "request") in
  let transport =
    mean_ms "request" -. server -. mean_ms "render" -. mean_ms "encode"
    -. mean_ms "decode"
  in
  (* Reconciliation: the workload's independently timed layers against its
     untraced op, and the part of the op none of them accounts for. *)
  let traced_ns, timed_ns, residual =
    match native with
    | `Gen ->
      ( total "gen_op" /. n "gen_op",
        sum total [ "compose"; "factor"; "scanner_gen"; "parser_gen" ]
        /. n "gen_op",
        "none" )
    | `Parse ->
      (total "parse_op" /. n "parse_op", total "parse_cst" /. n "parse_op", "session")
    | `Serve ->
      ( total "request" /. n "request",
        (server +. mean_ms "render" +. mean_ms "encode" +. mean_ms "decode")
        *. 1e6,
        "transport, a layer of its own" )
  in
  let gap = 100. *. (untraced_ns -. timed_ns) /. untraced_ns in
  (* A self time obtained as a difference is flagged when it is negative
     by more than the tolerance's share of what it was taken from. *)
  let negatives =
    List.filter_map
      (fun (name, v, whole) ->
        if v < -.(reconcile_tolerance /. 100.) *. whole then Some name else None)
      [
        ("parse", parse, us_per_stmt [ "parse_cst" ]);
        ("session", session, us_per_stmt [ "parse_batch" ]);
        ("transport", transport, mean_ms "request");
      ]
  in
  pr
    "trace: %d spans; untraced op %.4f ms, traced op %.4f ms, independently \
     timed layers %.4f ms\n"
    (List.length (Trace.spans tr))
    (ms untraced_ns) (ms traced_ns) (ms timed_ns);
  (* On serve-mix the residual is the transport layer itself, which the
     untimed share measures, so only the negative check applies there. *)
  let over = native <> `Serve && Float.abs gap > reconcile_tolerance in
  pr "reconcile: %s, %.2f%% of the untraced op not timed (residual: %s; \
      tolerance %.0f%%)%s\n"
    (if over || negatives <> [] then "GAP" else "ok")
    gap residual reconcile_tolerance
    (if negatives = [] then ""
     else "; negative self time: " ^ String.concat ", " negatives);
  [
    ("compose.ms_per_config", mean_ms "compose", "ms");
    ("factor.ms_per_config", mean_ms "factor", "ms");
    ("scanner_gen.ms_per_config", mean_ms "scanner_gen", "ms");
    ("parser_gen.ms_per_config", mean_ms "parser_gen", "ms");
    ( "parser_gen.alloc_mb_per_config",
      meta "parser_gen" "alloc_words" *. 8. /. 1048576. /. n "parser_gen",
      "MiB" );
    ( "parser_gen.fallback_points",
      meta "parser_gen" "fallback_points" /. n "parser_gen",
      "count" );
    ( "parser_gen.committed_share",
      meta "parser_gen" "committed_share" /. n "parser_gen",
      "ratio" );
    ("scan.us_per_stmt", scan, "us");
    ("parse.us_per_stmt", parse, "us");
    ("session.us_per_stmt", session, "us");
    ("accept.us_per_stmt", split "accept_ns" "accepts", "us");
    ("reject.us_per_stmt", split "reject_ns" "rejects", "us");
    ( "parse.alloc_words_per_token",
      meta "parse_batch" "alloc_words" /. meta "parse_batch" "tokens",
      "words/token" );
    ( "gc.major_collections",
      meta "parse_batch" "majors" *. 1e6 /. meta "parse_batch" "tokens",
      "count/Mtoken" );
    ("hello.ms", mean_ms "connect", "ms");
    ("session.server_ms_per_request", server, "ms");
    ("render.ms_per_request", mean_ms "render", "ms");
    ("wire.encode_ms_per_request", mean_ms "encode", "ms");
    ("wire.decode_ms_per_request", mean_ms "decode", "ms");
    ( "wire.reply_bytes_per_stmt",
      meta "encode" "bytes" /. meta "encode" "stmts",
      "bytes" );
    ("transport.ms_per_request", transport, "ms");
    ( "trace.overhead_share",
      100. *. (traced_ns -. untraced_ns) /. untraced_ns,
      "%" );
    ("reconcile.gap_share", gap, "%");
  ]

(* --- gen-churn ---------------------------------------------------------------- *)

(* One op is one cold [Core.generate]; its product is then checked. A
   traced run follows each op with a traced run of the four stages on the
   same configuration, so both see the same host conditions, and probes
   the service layers at the end. *)
let gen_churn () =
  let st, setup_s = repeated_setup ~release:ignore gen_setup in
  gen_inputs st;
  let t = tally () in
  let lat = ref [] and check_rates = ref [] in
  until_spent (fun () ->
      Array.iter
        (fun item ->
          let t0 = Trace.now () in
          let r = Core.generate ~label:item.label item.config in
          let dt = Trace.ns_since t0 in
          (match r with
          | Error e ->
            err "generate %s: %s\n" item.label (Fmt.str "%a" Core.pp_error e);
            record t `Error
          | Ok g ->
            lat := dt :: !lat;
            let ok, rate =
              if traced then with_tracing (fun () -> check_product st item g)
              else check_product st item g
            in
            check_rates := rate :: !check_rates;
            record t (if ok then `Ok else `Wrong));
          if traced then trace_generate item.label item.config)
        st.items);
  if traced then begin
    serve_probe t;
    (t, layer_metrics ~native:`Gen ~untraced_ns:(Trace.mean !lat))
  end
  else
    let busy = List.fold_left ( +. ) 0. !lat in
    ( t,
      [
        ("setup_s", setup_s, "s");
        ("ops_per_s", float_of_int (List.length !lat) /. (busy /. 1e9), "1/s");
        ("tokens_per_s", Trace.median !check_rates, "1/s");
        ("latency_p50_ms", ms (Trace.median !lat), "ms");
        ("latency_p90_ms", ms (Trace.quantile 0.9 !lat), "ms");
        ("peak_rss_mb", Trace.status_mb "VmHWM", "MiB");
      ] )

(* --- parse-committed, parse-fallback ------------------------------------------ *)

type parse_state = {
  fronts : (Core.generated * Service.Session.t) array;
  pool : batch array array;  (** pool.(op).(dialect) *)
}

let committed_shape =
  Dialects.Dialect.
    {
      dialects = [ minimal_select; scql; embedded ];
      budget = 40;
      reject_every = 0;
      batch_tokens = 640;
      ops = 32;
    }

let fallback_shape =
  Dialects.Dialect.
    {
      dialects = [ tinysql; analytics; full ];
      budget = 80;
      reject_every = 3;
      batch_tokens = 640;
      ops = 32;
    }

(* One operation: one batch on each of the workload's dialects. *)
let parse_op st k =
  let op = fresh_op () in
  span ~op "parse_op" (fun parent ->
      ( Array.mapi
          (fun d (_, session) -> batch ~parent ~op session st.pool.(k).(d).sqls)
          st.fronts,
        [] ))

let check_op st k outs =
  Array.for_all2 (fun b out -> check_batch b.stmts out) st.pool.(k) outs

(* The statements and Reference's verdicts are drawn in a child; here the
   program generates the dialects. *)
let parse_setup shape () =
  let pools =
    in_child (fun () ->
        List.mapi
          (fun i (d : Dialects.Dialect.t) ->
            batches_for
              (Inputs.front d.name d.config)
              ~seed:((seed * 31) + i) ~shape)
          shape.dialects)
  in
  let fronts =
    List.map2
      (fun d bs ->
        let g = generate_dialect d in
        ((g, Service.Session.create g), bs))
      shape.dialects pools
  in
  let st =
    {
      fronts = Array.of_list (List.map fst fronts);
      pool =
        Array.init shape.ops (fun k ->
            Array.of_list (List.map (fun (_, bs) -> List.nth bs k) fronts));
    }
  in
  (* Warm-up: one pass over the pool. *)
  for k = 0 to shape.ops - 1 do
    ignore (parse_op st k)
  done;
  st

(* The digest of a workload's statements and, per dialect, how many
   statements, tokens and rejects it holds. *)
let print_inputs (per_dialect : (string * batch list) list) =
  let stmts = List.concat_map (fun (_, bs) -> List.concat_map (fun b -> b.stmts) bs) per_dialect in
  pr "inputs %s:%s\n"
    (Inputs.digest (List.map (fun (s : Inputs.stmt) -> s.sql) stmts))
    (String.concat ";"
       (List.map
          (fun (name, bs) ->
            let ss = List.concat_map (fun b -> b.stmts) bs in
            Printf.sprintf " %s %d statements, %d tokens, %d rejects" name
              (List.length ss)
              (List.fold_left (fun a (s : Inputs.stmt) -> a + s.tokens) 0 ss)
              (List.length (List.filter (fun (s : Inputs.stmt) -> not s.sampled) ss)))
          per_dialect))

let parse_inputs st =
  print_inputs
    (Array.to_list
       (Array.mapi
          (fun d ((g : Core.generated), _) ->
            (g.label, Array.to_list (Array.map (fun row -> row.(d)) st.pool)))
          st.fronts))

(* Every op once, each timed and checked; returns the op times and the
   round's busy time and tokens. *)
let parse_round st t =
  let lat = ref [] and busy = ref 0. and tokens = ref 0 in
  for k = 0 to Array.length st.pool - 1 do
    let t0 = Trace.now () in
    let outs = parse_op st k in
    let dt = Trace.ns_since t0 in
    lat := dt :: !lat;
    busy := !busy +. dt;
    tokens :=
      Array.fold_left
        (fun acc (b : Service.Session.batch) -> acc + b.batch_stats.tokens)
        !tokens outs;
    record t (if check_op st k outs then `Ok else `Wrong)
  done;
  (!lat, (!busy /. 1e9, !tokens))

(* The request layers on every op's statements. *)
let layer_round st t =
  Array.iter
    (fun row ->
      let op = fresh_op () in
      let batches =
        Array.to_list (Array.mapi (fun d (g, _) -> (g, row.(d).stmts)) st.fronts)
      in
      record t (if layer_op ~op batches then `Ok else `Wrong))
    st.pool

(* parse-committed has no rejects, so a traced run probes the reject layer
   on one-token deletions of its sentences, kept out of the other layers'
   sums by a "probe." prefix. *)
let reject_probe t st shape =
  Array.iteri
    (fun d ((g : Core.generated), session) ->
      let (dialect : Dialects.Dialect.t) = List.nth shape.dialects d in
      let rejects =
        List.filter
          (fun (s : Inputs.stmt) -> not s.sampled)
          (Inputs.statements
             (Inputs.front dialect.name dialect.config)
             ~seed:(seed + d) ~budget:shape.budget ~count:32 ~reject_every:1)
      in
      let op = fresh_op () in
      with_tracing (fun () ->
          let out = batch ~prefix:"probe." ~op session (Inputs.sqls rejects) in
          let layers_ok = layer_op ~prefix:"probe." ~op [ (g, rejects) ] in
          record t (if check_batch rejects out && layers_ok then `Ok else `Wrong)))
    st.fronts

(* Rates are the median over rounds, so a stretch of host noise a few
   rounds long does not move them. A traced run follows each untraced
   round with a traced round and a round of the request layers on the
   same statements; the generation of its dialects is traced in set-up. *)
let parse_workload shape =
  let st, setup_s = repeated_setup ~release:ignore (parse_setup shape) in
  parse_inputs st;
  let t = tally () in
  let rounds = ref [] in
  until_spent (fun () ->
      rounds := parse_round st t :: !rounds;
      if traced then
        with_tracing (fun () ->
            ignore (parse_round st t);
            layer_round st t));
  let lat = List.concat_map fst !rounds in
  if traced then begin
    if shape.reject_every = 0 then reject_probe t st shape;
    serve_probe t;
    (t, layer_metrics ~native:`Parse ~untraced_ns:(Trace.mean lat))
  end
  else
    let ops = float_of_int (Array.length st.pool) in
    let rate f = Trace.median (List.map (fun (_, r) -> f r) !rounds) in
    ( t,
      [
        ("setup_s", setup_s, "s");
        ("ops_per_s", rate (fun (busy, _) -> ops /. busy), "1/s");
        ("tokens_per_s", rate (fun (busy, n) -> float_of_int n /. busy), "1/s");
        ("latency_p50_ms", ms (Trace.median lat), "ms");
        ("latency_p90_ms", ms (Trace.quantile 0.9 lat), "ms");
        ("peak_rss_mb", Trace.status_mb "VmHWM", "MiB");
      ] )

(* --- serve-mix ----------------------------------------------------------------- *)

let connections = 2
let requests_per_connection = 4
let requests_per_dialect = 48

(* A connection's client, when connected, with the dialect it said hello
   to. *)
type conn = {
  mutable client : (Service.Client.t * int) option;
  crng : Random.State.t;
}

(* Daemon start until every connection has said hello and had one request
   answered. *)
let serve_setup oracle () =
  let d = Daemon.start ~sqlpl:!sqlpl in
  let conns =
    Array.init connections (fun c ->
        let crng = Inputs.rng seed (100 + c) in
        let dialect = Random.State.int crng (Array.length oracle.requests) in
        let name, _, _ = oracle.sessions.(dialect) in
        let client = connect_to d name in
        if send ~on:false ~op:0 client oracle.requests.(dialect).(0) <> `Ok then
          failwith "serve warm-up request failed";
        { client = Some (client, dialect); crng })
  in
  (d, conns)

let serve_release (d, conns) =
  Array.iter
    (fun c -> Option.iter (fun (cl, _) -> Service.Client.close cl) c.client)
    conns;
  Daemon.stop d

(* One closed-loop connection: a seeded dialect per hello, a few requests,
   then reconnect. In a traced run every other cycle is traced: its hello
   and requests become spans, the rest are timed untraced, so both halves
   see the same host conditions. *)
let drive ~deadline oracle (d : Daemon.t) conn t =
  let lat = ref [] and done_at = ref [] and samples = ref [] in
  let rec cycle n =
    if Trace.now () < deadline then begin
      let on = traced && n mod 2 = 1 in
      let connected =
        match conn.client with
        | Some c -> Some c
        | None -> (
          let dialect =
            Random.State.int conn.crng (Array.length oracle.requests)
          in
          let name, _, _ = oracle.sessions.(dialect) in
          match
            span ~on ~op:(fresh_op ()) "connect" (fun _ -> (connect_to d name, []))
          with
          | c -> Some (c, dialect)
          | exception Failure msg ->
            err "%s\n" msg;
            record t `Error;
            None)
      in
      conn.client <- None;
      (match connected with
      | None -> ()
      | Some (client, dialect) ->
        let pool = oracle.requests.(dialect) in
        let rec go k =
          if k > 0 && Trace.now () < deadline then begin
            let q = pool.(Random.State.int conn.crng (Array.length pool)) in
            let op = fresh_op () in
            if on then
              samples :=
                { served_op = op; served_dialect = dialect; served = q }
                :: !samples;
            let t0 = Trace.now () in
            let res = send ~on ~op client q in
            if res = `Ok then begin
              if not on then lat := Trace.ns_since t0 :: !lat;
              done_at := (Trace.now (), q.req_tokens) :: !done_at
            end;
            record t res;
            if res <> `Error then go (k - 1)
          end
        in
        go requests_per_connection;
        Service.Client.close client);
      cycle (n + 1)
    end
  in
  cycle 0;
  (!lat, !done_at, !samples)

let window_ns = 5e8

(* Every connection on its own thread. Returns the untraced latencies, the
   request and token rates (each the median over half-second windows of
   the loop) and the traced requests. *)
let serve_loop oracle d conns t =
  let deadline = Int64.add (Trace.now ()) (Int64.of_float budget_ns) in
  let t0 = Trace.now () in
  let results = Array.make (Array.length conns) ([], [], []) in
  let tallies = Array.map (fun _ -> tally ()) conns in
  let threads =
    Array.mapi
      (fun i conn ->
        Thread.create
          (fun () -> results.(i) <- drive ~deadline oracle d conn tallies.(i))
          ())
      conns
  in
  Array.iter Thread.join threads;
  Array.iter (merge t) tallies;
  let results = Array.to_list results in
  let windows = max 1 (int_of_float (budget_ns /. window_ns)) in
  let reqs = Array.make windows 0 and toks = Array.make windows 0 in
  List.iter
    (fun (at, n) ->
      let w = int_of_float (Trace.ns_between t0 at /. window_ns) in
      if w < windows then begin
        reqs.(w) <- reqs.(w) + 1;
        toks.(w) <- toks.(w) + n
      end)
    (List.concat_map (fun (_, d, _) -> d) results);
  let rate a =
    Trace.median
      (Array.to_list
         (Array.map (fun c -> float_of_int c /. (window_ns /. 1e9)) a))
  in
  ( List.concat_map (fun (l, _, _) -> l) results,
    rate reqs,
    rate toks,
    List.concat_map (fun (_, _, s) -> s) results )

let serve_inputs oracle =
  print_inputs
    (Array.to_list
       (Array.mapi
          (fun d (name, _, _) ->
            (name, Array.to_list (Array.map (fun q -> q.req) oracle.requests.(d))))
          oracle.sessions))

(* The oracle is built before set-up and not counted in it; in a traced run
   building it traces the generation of the six dialects. After the loop a
   traced run times the in-process render and codec on the traced requests
   and the request layers on each dialect's requests. *)
let serve_mix () =
  let t = tally () in
  let oracle = serve_oracle ~per_dialect:requests_per_dialect t in
  serve_inputs oracle;
  let (d, conns), setup_s =
    repeated_setup ~since:(Trace.now ()) ~release:serve_release
      (serve_setup oracle)
  in
  let (lat, ops_per_s, tokens_per_s, samples), peak =
    Fun.protect ~finally:(fun () -> serve_release (d, conns)) @@ fun () ->
    let r = serve_loop oracle d conns t in
    (r, Daemon.peak_rss_mb d)
  in
  if traced then begin
    trace_served t oracle samples;
    with_tracing (fun () ->
        Array.iteri
          (fun dialect (_, g, session) ->
            Array.iter
              (fun q ->
                let op = fresh_op () in
                let out = batch ~op session q.req.sqls in
                let layers_ok = layer_op ~op [ (g, q.req.stmts) ] in
                record t
                  (if check_batch q.req.stmts out && layers_ok then `Ok
                   else `Wrong))
              oracle.requests.(dialect))
          oracle.sessions);
    (t, layer_metrics ~native:`Serve ~untraced_ns:(Trace.mean lat))
  end
  else
    ( t,
      [
        ("setup_s", setup_s, "s");
        ("ops_per_s", ops_per_s, "1/s");
        ("tokens_per_s", tokens_per_s, "1/s");
        ("latency_p50_ms", ms (Trace.median lat), "ms");
        ("latency_p90_ms", ms (Trace.quantile 0.9 lat), "ms");
        ("peak_rss_mb", peak, "MiB");
      ] )

(* --- main -------------------------------------------------------------------- *)

let print_result (t : tally) metrics =
  let bad = List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics in
  if bad <> [] then begin
    List.iter (fun (n, _, _) -> err "metric %s is not a number\n" n) bad;
    exit 1
  end;
  pr "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (t.wrong = 0) t.attempted t.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v
              unit)
          metrics))

let () =
  let run =
    match !workload with
    | "gen-churn" -> gen_churn
    | "parse-committed" -> fun () -> parse_workload committed_shape
    | "parse-fallback" -> fun () -> parse_workload fallback_shape
    | "serve-mix" -> serve_mix
    | w ->
      err "unknown workload %S\n" w;
      exit 2
  in
  let t, metrics = run () in
  if traced then begin
    Daemon.ensure_run_dir ();
    Trace.write tr
      (Printf.sprintf "%s/trace-%s-%d.jsonl" Daemon.run_dir !workload seed)
  end;
  print_result t metrics

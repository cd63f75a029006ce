(* Seeded inputs and their oracles.

   Everything the program sees is generated here from the run's seed:
   feature configurations drawn with [Feature.Config.sample], statements
   drawn with [Grammar.Sampler] from a composed grammar, and rejects made
   by deleting one token of a sampled sentence. Each statement carries the
   verdict of [Parser_gen.Reference] on the composed grammar, which is what
   the outputs are checked against. *)

let rng seed salt = Random.State.make [| seed; salt |]

(* --- configurations --------------------------------------------------- *)

(* Samples whose requires-closure trips an OR or ALT group are repaired by
   selecting the group's first member, closed again, and revalidated. *)
let rec repair config budget =
  if budget = 0 then config
  else
    match Feature.Config.validate Sql.Model.model config with
    | [] -> config
    | violations ->
      let first_member parent =
        match
          Feature.Tree.find Sql.Model.model.Feature.Model.concept parent
        with
        | None -> None
        | Some p ->
          List.find_map
            (function
              | Feature.Tree.Or_group ((m : Feature.Tree.t) :: _)
              | Feature.Tree.Alt_group (m :: _) ->
                Some m.Feature.Tree.name
              | _ -> None)
            p.Feature.Tree.groups
      in
      let additions =
        List.filter_map
          (function
            | Feature.Config.Or_group_violation { parent }
            | Feature.Config.Alt_group_violation { parent; selected = [] } ->
              first_member parent
            | _ -> None)
          violations
      in
      if additions = [] then config
      else
        repair
          (Sql.Model.close
             (Feature.Config.union config (Feature.Config.of_names additions)))
          (budget - 1)

(* [count] distinct valid configurations, none equal to a shipped dialect,
   drawn from a constant seed, so every run generates the same set: the
   cost of generation varies so much between configurations that the
   latency quantiles of a freshly drawn set of 150 moved by 20-25% from
   one run seed to the next, more than a regression bound can allow. The
   run seed orders the set and draws each configuration's check
   statements.

   Also returns the number of valid draws left out because they do not
   compose: the feature model admits some configurations whose composed
   grammar is incoherent (see FOUND in CHANGES.md). *)
let random_configs ~count =
  let r = rng 2008 1 in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (d : Dialects.Dialect.t) ->
      Hashtbl.replace seen (Feature.Config.to_names d.config) ())
    Dialects.Dialect.all;
  let left_out = ref 0 in
  let rec draw acc n tries =
    if n = count then (List.rev acc, !left_out)
    else if tries = 0 then failwith "random_configs: too few valid draws"
    else
      let config =
        repair
          (Feature.Config.sample Sql.Model.model ~seed:(Random.State.bits r))
          8
      in
      let key = Feature.Config.to_names config in
      if
        Feature.Config.validate Sql.Model.model config <> []
        || Hashtbl.mem seen key
      then draw acc n (tries - 1)
      else begin
        Hashtbl.replace seen key ();
        match Sql.Model.compose config with
        | Ok _ -> draw (config :: acc) (n + 1) (tries - 1)
        | Error _ ->
          incr left_out;
          draw acc n (tries - 1)
      end
  in
  draw [] 0 (count * 50)

(* A seeded permutation. *)
let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* --- oracles -------------------------------------------------------------- *)

(* What a configuration's statements are drawn from and checked against:
   its composed grammar and token set, a scanner built from that token set
   (the same ids [Core.generate] stamps), and [Parser_gen.Reference] on the
   composed grammar. Built from composition alone, so no product of
   [Parser_gen.Engine.generate] is needed and the oracle costs no
   generation. *)
type front = {
  grammar : Grammar.Cfg.t;
  token_set : Lexing_gen.Spec.set;
  scanner : Lexing_gen.Scanner.t;
  reference : Parser_gen.Reference.t;
}

let front label config =
  match Sql.Model.compose config with
  | Error e -> Fmt.failwith "compose %s: %a" label Compose.Composer.pp_error e
  | Ok out -> (
    let grammar = out.Compose.Composer.grammar in
    match Parser_gen.Reference.generate grammar with
    | Ok reference ->
      {
        grammar;
        token_set = out.Compose.Composer.tokens;
        scanner = Lexing_gen.Scanner.create out.Compose.Composer.tokens;
        reference;
      }
    | Error e ->
      Fmt.failwith "reference generate %s: %a" label
        Parser_gen.Engine.pp_gen_error e)

let generate_dialect (d : Dialects.Dialect.t) =
  match Core.generate_dialect d with
  | Ok g -> g
  | Error e -> Fmt.failwith "generate %s: %a" d.name Core.pp_error e

(* Expected CSTs are kept as a hash of their full structure (labels, token
   kinds, ids, texts and positions): holding the trees themselves would
   make the benchmark's own live heap, not the program's, set the cost of
   the major GC during the timed operations. Hashing allocates nothing. *)
let mix h x = (h lxor x) * 0x100000001b3

let mix_string h s =
  let h = ref (mix h (String.length s)) in
  for i = 0 to String.length s - 1 do
    h := mix !h (Char.code (String.unsafe_get s i))
  done;
  !h

let rec hash_cst h = function
  | Parser_gen.Cst.Node (label, kids) ->
    List.fold_left hash_cst (mix (mix_string h label) (List.length kids)) kids
  | Parser_gen.Cst.Leaf (t : Lexing_gen.Token.t) ->
    let h = mix (mix_string (mix_string h t.kind) t.text) t.kind_id in
    mix (mix (mix h t.pos.line) t.pos.column) t.pos.offset

let cst_hash = hash_cst 0x4bf29ce484222325

type expect = Accept of int  (** {!cst_hash} of Reference's CST *) | Reject

type stmt = {
  sql : string;
  tokens : int;
  expect : expect;
  sampled : bool;  (** drawn from the grammar, so it must be accepted *)
}

let oracle f sql =
  match Lexing_gen.Scanner.scan_tokens f.scanner sql with
  | Error _ -> Reject
  | Ok toks -> (
    match Parser_gen.Reference.parse f.reference (Array.to_list toks) with
    | Ok cst -> Accept (cst_hash cst)
    | Error _ -> Reject)

(* Is a library result correct? An accepted CST must equal Reference's, a
   rejection must be Reference's verdict too (the factored grammar the
   engine runs may widen an error's expected set, so only the verdict is
   compared), and a sampled sentence, in the grammar's language by
   construction, must be accepted. *)
let check (s : stmt) (result : (Parser_gen.Cst.t, Core.error) result) =
  match (s.expect, result) with
  | Accept h, Ok c -> h = cst_hash c
  | Reject, Error (Core.Parse_error _ | Core.Lex_error _) -> not s.sampled
  | _ -> false

let accepted f ~seed ~budget ~count =
  Grammar.Sampler.sentences ~seed ~budget ~count f.grammar
  |> List.map (fun terms ->
         let sql = Service.Sentences.render f.token_set terms in
         ( terms,
           { sql; tokens = List.length terms; expect = oracle f sql; sampled = true }
         ))

(* A reject: one token of a sampled sentence deleted, kept only when the
   oracle rejects the result. *)
let reject_of f r terms =
  let n = List.length terms in
  let rec attempt k =
    if k = 0 || n < 2 then None
    else
      let drop = Random.State.int r n in
      let terms' = List.filteri (fun i _ -> i <> drop) terms in
      let sql = Service.Sentences.render f.token_set terms' in
      match oracle f sql with
      | Reject -> Some { sql; tokens = n - 1; expect = Reject; sampled = false }
      | Accept _ -> attempt (k - 1)
  in
  attempt 4

(* Statements for [f]: sampled sentences, and after every
   [reject_every]-th of them one reject derived from it ([0]: none). *)
let statements f ~seed ~budget ~count ~reject_every =
  let r = rng seed 2 in
  List.concat
    (List.mapi
       (fun i (terms, s) ->
         if reject_every > 0 && (i + 1) mod reject_every = 0 then
           match reject_of f r terms with Some x -> [ s; x ] | None -> [ s ]
         else [ s ])
       (accepted f ~seed ~budget ~count))

(* Cut a statement list into batches of at least [tokens] tokens each; a
   short tail is dropped so every batch does about the same work. *)
let batches ~tokens stmts =
  let rec go acc cur n = function
    | [] -> List.rev acc
    | s :: rest ->
      let cur = s :: cur and n = n + s.tokens in
      if n >= tokens then go (List.rev cur :: acc) [] 0 rest
      else go acc cur n rest
  in
  go [] [] 0 stmts

let sqls batch = List.map (fun s -> s.sql) batch

(* --- digest ------------------------------------------------------------ *)

(* A digest of everything the program is fed, printed by every run, so two
   runs that drew different traffic are told apart. *)
let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

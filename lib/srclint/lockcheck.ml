(* Held-lock-set abstract interpretation over the parsetree.

   The walker threads an environment (set of qualified locks known held +
   are-we-inside-a-spawned-closure flag) through each expression in
   evaluation order; branches are merged by intersection (a lock is held
   after [if]/[match] only if every branch exits holding it), loops are
   assumed lock-balanced, and closures are analyzed at their definition
   site with the definition-time held set — except closures passed to
   spawn points, which start from the empty set on a fresh domain/thread. *)

open Ppxlib
open Model
module SS = Set.Make (String)

type edge = { efrom : string; eto : string; efile : string; eline : int }

type result = { items : item list; edges : edge list }

(* Primitives that can block the calling domain. [Mutex.lock] is excluded —
   it feeds the lock-order graph instead. Channel *output* is excluded by
   design: Trace deliberately writes under its sink mutex. *)
let blocking_heads =
  [ ("Unix", "read"); ("Unix", "write"); ("Unix", "accept");
    ("Unix", "connect"); ("Unix", "select"); ("Unix", "sleep");
    ("Unix", "sleepf"); ("Unix", "recv"); ("Unix", "send");
    ("Unix", "recvfrom"); ("Unix", "sendto"); ("Unix", "waitpid");
    ("Unix", "wait"); ("Unix", "system"); ("Thread", "join");
    ("Thread", "delay"); ("Domain", "join"); ("Pool", "await");
    ("Pool", "map"); ("Pool", "run"); ("Condition", "wait");
    ("", "input_line"); ("", "really_input"); ("", "really_input_string") ]

let is_blocking p = List.mem p blocking_heads

(* For interprocedural summaries only: [Condition.wait] blocks but releases
   the mutex it is given, so a callee built around it (a worker loop) is not
   "blocking under the lock" for its caller — the direct special case
   already validates each wait site. *)
let is_summary_blocking p = is_blocking p && p <> ("Condition", "wait")

let blocking_name (m, f) = if m = "" then f else m ^ "." ^ f

(* ---- interprocedural summaries ---- *)

type summary = {
  mutable s_block : bool;
  mutable s_acq : SS.t;
  mutable s_callees : (string * string) list;  (* resolved (file base, name) *)
}

(* Syntactic facts of one function body: blocking-primitive occurrences,
   direct lock acquisitions, callee candidates. Closure arguments of spawn
   points run on another domain, so their contents are excluded. *)
let rec facts (f : Model.file) sm (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
    if is_summary_blocking (last2 txt) then sm.s_block <- true;
    sm.s_callees <- resolve f txt :: sm.s_callees
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
    match last2 txt with
    | ("Mutex", "lock") | ("Mutex", "protect") ->
      (match args with
      | (_, me) :: rest ->
        (match lock_of_expr f me with
        | Some l -> sm.s_acq <- SS.add l sm.s_acq
        | None -> ());
        List.iter (fun (_, a) -> facts f sm a) rest
      | [] -> ())
    | p when is_spawn p -> if is_summary_blocking p then sm.s_block <- true
    | p ->
      if is_summary_blocking p then sm.s_block <- true
      else sm.s_callees <- resolve f txt :: sm.s_callees;
      List.iter (fun (_, a) -> facts f sm a) args)
  | _ -> List.iter (facts f sm) (children e)

let build_summaries files =
  summarize files
    ~init:(fun () -> { s_block = false; s_acq = SS.empty; s_callees = [] })
    ~facts:(fun f name sm body ->
      facts f sm body;
      (match Hashtbl.find_opt f.funs name with
      | Some fa ->
        sm.s_acq <-
          SS.union sm.s_acq (SS.of_list (fa.facquires @ fa.fwith_lock))
      | None -> ());
      sm.s_callees <- List.sort_uniq compare sm.s_callees)
    ~calls:(fun sm -> List.map (fun key -> (key, ())) sm.s_callees)
    ~absorb:(fun sm () c ->
      (* propagate may-block / may-acquire *)
      let grew =
        (c.s_block && not sm.s_block) || not (SS.subset c.s_acq sm.s_acq)
      in
      sm.s_block <- sm.s_block || c.s_block;
      sm.s_acq <- SS.union sm.s_acq c.s_acq;
      grew)

(* ---- the walker ---- *)

(* [shadow] holds names rebound by enclosing lets / parameters / case
   patterns: a bare identifier that is shadowed can no longer denote a
   shared-state binding, so it is exempt from guarded-access checks. *)
type env = { held : SS.t; spawn : bool; shadow : SS.t }

type run = { items : item list ref; mutable raw_edges : edge list }

type ctx = {
  cfile : Model.file;
  models : (string, Model.file) Hashtbl.t;  (* base -> file(s) *)
  summaries : (string * string, summary) Hashtbl.t;
  run : run;
}

let emit ctx = Model.emit ctx.run.items ctx.cfile.path

let held_str held = String.concat ", " (SS.elements held)

let add_edges ctx line held ~to_:l =
  SS.iter
    (fun h ->
      if h <> l then
        ctx.run.raw_edges <-
          { efrom = h; eto = l; efile = ctx.cfile.Model.path; eline = line }
          :: ctx.run.raw_edges)
    held

let fannots_of ctx txt : Model.fannot list =
  match last2 txt with
  | "", n -> (
    match Hashtbl.find_opt ctx.cfile.Model.funs n with
    | Some fa -> [ fa ]
    | None -> [])
  | m, n ->
    Hashtbl.find_all ctx.models (String.lowercase_ascii m)
    |> List.filter_map (fun (f : Model.file) -> Hashtbl.find_opt f.funs n)

let summaries_of ctx txt =
  Hashtbl.find_all ctx.summaries (resolve ctx.cfile txt)

(* [ident] marks a bare-identifier mention: those cannot denote record
   fields and are exempt when the name is shadowed by a local binding. *)
let check_state_access ?(ident = false) ctx env ~line ~write name =
  match Hashtbl.find_opt ctx.cfile.Model.states name with
  | Some st when ident && (SS.mem name env.shadow || st.Model.skind = Model.Field)
    ->
    ()
  | None -> ()
  | Some st -> (
    match st.Model.sguard with
    | Model.Confined | Model.Unannotated -> ()
    | Model.Guarded l ->
      if not (SS.mem l env.held) then
        if Model.suppressed ctx.cfile line then ()
        else if env.spawn then
          emit ctx line `E "src-domain-capture"
            "closure passed to another domain captures %s (guarded by %s) \
             without acquiring it"
            name l
        else
          emit ctx line `E "src-unguarded-access"
            "%s to %s (guarded by %s) without holding %s"
            (if write then "write" else "access")
            name l l)

(* blocking checks for any mention of a name while locks are held *)
let check_blocking ctx env ~line txt =
  if not (SS.is_empty env.held) then begin
    let p = last2 txt in
    if is_blocking p then
      emit ctx line `E "src-blocking-under-lock"
        "blocking call %s while holding %s" (blocking_name p)
        (held_str env.held)
    else if List.exists (fun s -> s.s_block) (summaries_of ctx txt) then
      emit ctx line `E "src-blocking-under-lock"
        "call to %s may block (transitively) while holding %s"
        (blocking_name p) (held_str env.held)
  end

let rec walk ctx env (e : expression) : env =
  let line = e.pexp_loc.loc_start.pos_lnum in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
    check_blocking ctx env ~line txt;
    (match txt with
    | Lident n -> check_state_access ~ident:true ctx env ~line ~write:false n
    | _ -> ());
    env
  | Pexp_field (b, { txt; _ }) ->
    let env = walk ctx env b in
    check_state_access ctx env ~line ~write:false (lid_last txt);
    env
  | Pexp_setfield (b, { txt; _ }, v) ->
    let env = walk ctx env b in
    let env = walk ctx env v in
    check_state_access ctx env ~line ~write:true (lid_last txt);
    env
  | Pexp_sequence (a, b) -> walk ctx (walk ctx env a) b
  | Pexp_let (_, vbs, body) ->
    let env =
      List.fold_left
        (fun acc vb ->
          (* a local function carrying a lock precondition (@requires) is
             analyzed with that precondition held *)
          let acc' =
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt = n; _ } when is_closure vb.pvb_expr -> (
              match Hashtbl.find_opt ctx.cfile.Model.funs n with
              | Some fa ->
                { acc with held = SS.union acc.held (SS.of_list fa.frequires) }
              | None -> acc)
            | _ -> acc
          in
          ignore (walk ctx acc' vb.pvb_expr);
          acc)
        env vbs
    in
    let shadow =
      List.fold_left
        (fun acc vb -> SS.union acc (pat_vars vb.pvb_pat))
        env.shadow vbs
    in
    walk ctx { env with shadow } body
  | Pexp_ifthenelse (c, t, f) ->
    let envc = walk ctx env c in
    let et = walk ctx envc t in
    let ef = match f with Some f -> walk ctx envc f | None -> envc in
    let exits =
      (if diverges t then [] else [ et.held ])
      @
      match f with
      | Some f when diverges f -> []
      | _ -> [ ef.held ]
    in
    (match exits with
    | [] -> et (* both branches diverge: the join is unreachable *)
    | h :: rest -> { envc with held = List.fold_left SS.inter h rest })
  | Pexp_match (s, cases) ->
    let env0 = walk ctx env s in
    merge_cases ctx env0 cases
  | Pexp_try (s, cases) ->
    let envb = walk ctx env s in
    let envh = merge_cases ctx env cases in
    { env with held = SS.inter envb.held envh.held }
  | Pexp_while (c, b) ->
    let env' = walk ctx env c in
    ignore (walk ctx env' b);
    env
  | Pexp_for (pat, a, b, _, body) ->
    let env' = walk ctx (walk ctx env a) b in
    ignore
      (walk ctx
         { env' with shadow = SS.union env'.shadow (pat_vars pat) }
         body);
    env'
  | Pexp_function (params, _, body) ->
    let shadow =
      List.fold_left
        (fun acc p ->
          match p.pparam_desc with
          | Pparam_val (_, d, pat) ->
            (match d with Some d -> ignore (walk ctx env d) | None -> ());
            SS.union acc (pat_vars pat)
          | Pparam_newtype _ -> acc)
        env.shadow params
    in
    let benv = { env with shadow } in
    (match body with
    | Pfunction_body b -> ignore (walk ctx benv b)
    | Pfunction_cases (cases, _, _) -> ignore (merge_cases ctx benv cases));
    env
  | Pexp_record (fields, base) ->
    (* building a record is not an access to the (new) fields; [{ b with .. }]
       reads of unnamed fields of [b] are not modeled *)
    let env = match base with Some b -> walk ctx env b | None -> env in
    List.fold_left (fun acc (_, fe) -> walk ctx acc fe) env fields
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; pexp_loc; _ }, args) ->
    apply ctx env ~line ~head_line:pexp_loc.loc_start.pos_lnum txt args
  | Pexp_apply (head, args) ->
    let env = walk ctx env head in
    List.fold_left (fun acc (_, a) -> walk ctx acc a) env args
  | _ -> List.fold_left (walk ctx) env (children e)

and merge_cases ctx env0 cases =
  let exits =
    List.filter_map
      (fun c ->
        let envp =
          { env0 with shadow = SS.union env0.shadow (pat_vars c.pc_lhs) }
        in
        let e1 =
          match c.pc_guard with Some g -> walk ctx envp g | None -> envp
        in
        let ex = walk ctx e1 c.pc_rhs in
        if diverges c.pc_rhs then None else Some ex)
      cases
  in
  match exits with
  | [] -> env0
  | first :: rest ->
    { env0 with
      held = List.fold_left (fun acc e -> SS.inter acc e.held) first.held rest
    }

and apply ctx env ~line ~head_line txt args =
  let walk_args env =
    List.fold_left (fun acc (_, a) -> walk ctx acc a) env args
  in
  match (last2 txt, args) with
  | ("Mutex", "lock"), (_, me) :: _ -> (
    let env = walk_args env in
    match lock_of_expr ctx.cfile me with
    | None -> env
    | Some l ->
      if SS.mem l env.held then begin
        emit ctx line `E "src-recursive-lock"
          "Mutex.lock on %s which is already held" l;
        env
      end
      else begin
        add_edges ctx line env.held ~to_:l;
        { env with held = SS.add l env.held }
      end)
  | ("Mutex", "unlock"), (_, me) :: _ -> (
    let env = walk_args env in
    match lock_of_expr ctx.cfile me with
    | None -> env
    | Some l -> { env with held = SS.remove l env.held })
  | ("Mutex", "try_lock"), (_, me) :: _ -> (
    (* records the ordering edge but conservatively does not assume held *)
    let env = walk_args env in
    match lock_of_expr ctx.cfile me with
    | None -> env
    | Some l ->
      add_edges ctx line env.held ~to_:l;
      env)
  | ("Mutex", "protect"), (_, me) :: rest -> (
    let env = walk ctx env me in
    match lock_of_expr ctx.cfile me with
    | None -> List.fold_left (fun acc (_, a) -> walk ctx acc a) env rest
    | Some l ->
      if SS.mem l env.held then
        emit ctx line `E "src-recursive-lock"
          "Mutex.protect on %s which is already held" l;
      add_edges ctx line env.held ~to_:l;
      let inner = { env with held = SS.add l env.held } in
      List.iter (fun (_, a) -> ignore (walk ctx inner a)) rest;
      env)
  | ("Condition", "wait"), [ (_, ce); (_, me) ] -> (
    let env = walk ctx (walk ctx env ce) me in
    match lock_of_expr ctx.cfile me with
    | None -> env
    | Some l ->
      if not (SS.mem l env.held) then
        emit ctx line `E "src-condition-wait"
          "Condition.wait with %s not held" l;
      let others = SS.remove l env.held in
      if not (SS.is_empty others) then
        emit ctx line `E "src-blocking-under-lock"
          "Condition.wait releases only %s while still holding %s" l
          (held_str others);
      env)
  | ("Fun", "protect"), _ -> (
    (* [Fun.protect ~finally body]: body runs now, finally on exit; locks
       unlocked in [finally] are released on every path out *)
    let finally =
      List.find_map
        (fun (lbl, a) ->
          match lbl with Labelled "finally" -> Some a | _ -> None)
        args
    in
    let unlocked =
      match finally with
      | None -> SS.empty
      | Some fin ->
        let acc = ref SS.empty in
        let it =
          object
            inherit Ast_traverse.iter as super

            method! expression x =
              (match x.pexp_desc with
              | Pexp_apply
                  ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, me) :: _)
                when last2 txt = ("Mutex", "unlock") -> (
                match lock_of_expr ctx.cfile me with
                | Some l -> acc := SS.add l !acc
                | None -> ())
              | _ -> ());
              super#expression x
          end
        in
        it#expression fin;
        !acc
    in
    let body =
      List.find_map
        (fun (lbl, a) -> match lbl with Nolabel -> Some a | _ -> None)
        args
    in
    (match finally with
    | Some fin -> ignore (walk ctx env fin)
    | None -> ());
    match body with
    | None -> { env with held = SS.diff env.held unlocked }
    | Some b ->
      let eb = walk ctx env b in
      { env with held = SS.diff eb.held unlocked })
  | (p, _) when is_spawn p ->
    (* closure literals run on another domain: empty held set, capture
       checks on; other arguments are evaluated here *)
    let env' =
      List.fold_left
        (fun acc (_, a) ->
          if is_closure a then begin
            ignore (walk ctx { env with held = SS.empty; spawn = true } a);
            acc
          end
          else walk ctx acc a)
        env args
    in
    if is_blocking p && not (SS.is_empty env.held) then
      emit ctx line `E "src-blocking-under-lock"
        "blocking call %s while holding %s" (blocking_name p)
        (held_str env.held);
    (* the spawn primitive itself may take locks on the calling thread
       (Pool.submit enqueues under the pool mutex) *)
    List.iter
      (fun s ->
        SS.iter
          (fun a ->
            if not (SS.mem a env.held) then add_edges ctx line env.held ~to_:a)
          s.s_acq)
      (summaries_of ctx txt);
    env'
  | (_, fname), _ ->
    check_blocking ctx env ~line:head_line txt;
    (match txt with
    | Lident n -> check_state_access ~ident:true ctx env ~line ~write:false n
    | _ -> ());
    (* [state := v] — flag the write on the ref itself; the bare-ident
       LHS is consumed here so the argument walk below does not also
       report it as a read *)
    let args =
      match (fname, args) with
      | ( ":=",
          (_, { pexp_desc = Pexp_ident { txt = Lident n; _ }; _ }) :: rest ) ->
        check_state_access ~ident:true ctx env ~line ~write:true n;
        rest
      | _ -> args
    in
    let fas = fannots_of ctx txt in
    (* lock preconditions (@requires): caller must already hold them *)
    List.iter
      (fun (fa : Model.fannot) ->
        List.iter
          (fun l ->
            if not (SS.mem l env.held) then
              emit ctx line `E "src-requires-violation"
                "call to %s requires %s which is not held" fname l)
          fa.frequires)
      fas;
    let with_locks =
      List.concat_map (fun (fa : Model.fannot) -> fa.fwith_lock) fas
    in
    let env' =
      if with_locks = [] then
        List.fold_left (fun acc (_, a) -> walk ctx acc a) env args
      else begin
        (* a @with_lock wrapper: closure arguments run with the lock held *)
        List.iter (fun l -> add_edges ctx line env.held ~to_:l) with_locks;
        let inner =
          { env with held = SS.union env.held (SS.of_list with_locks) }
        in
        List.fold_left
          (fun acc (_, a) ->
            if is_closure a then begin
              ignore (walk ctx inner a);
              acc
            end
            else walk ctx acc a)
          env args
      end
    in
    (* summary effects: lock-order edges through the callee *)
    List.iter
      (fun s ->
        SS.iter
          (fun a ->
            if not (SS.mem a env'.held) then
              add_edges ctx line env'.held ~to_:a)
          s.s_acq)
      (summaries_of ctx txt);
    env'

let walk_file ctx =
  let rec item (it : structure_item) =
    match it.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          let held0 =
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt = n; _ } -> (
              match Hashtbl.find_opt ctx.cfile.Model.funs n with
              | Some fa -> SS.of_list fa.frequires
              | None -> SS.empty)
            | _ -> SS.empty
          in
          ignore
            (walk ctx
               { held = held0; spawn = false; shadow = SS.empty }
               vb.pvb_expr))
        vbs
    | Pstr_eval (e, _) ->
      ignore
        (walk ctx { held = SS.empty; spawn = false; shadow = SS.empty } e)
    | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
      List.iter item sub
    | _ -> ()
  in
  List.iter item ctx.cfile.Model.structure

(* ---- lock-order graph analysis ---- *)

let dedup_edges raw =
  let seen = Hashtbl.create 32 in
  List.fold_left
    (fun acc e ->
      if Hashtbl.mem seen (e.efrom, e.eto) then acc
      else begin
        Hashtbl.replace seen (e.efrom, e.eto) ();
        e :: acc
      end)
    [] (List.rev raw)
  |> List.rev

(* strongly connected components (Tarjan); nodes sorted for determinism *)
let sccs nodes adj =
  let index = Hashtbl.create 16 and low = Hashtbl.create 16 in
  let onstack = Hashtbl.create 16 in
  let stack = ref [] and counter = ref 0 and out = ref [] in
  let rec strong v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace onstack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strong w;
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem onstack w then
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (try Hashtbl.find adj v with Not_found -> []);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let comp = ref [] in
      let fin = ref false in
      while not !fin do
        match !stack with
        | [] -> fin := true
        | w :: rest ->
          stack := rest;
          Hashtbl.remove onstack w;
          comp := w :: !comp;
          if w = v then fin := true
      done;
      out := List.sort compare !comp :: !out
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strong v) nodes;
  List.rev !out

let order_findings run (files : Model.file list) edges =
  let emit_at file line = Model.emit run.items file line `E in
  (* observed-cycle detection *)
  let adj = Hashtbl.create 16 in
  let nodes = ref SS.empty in
  List.iter
    (fun e ->
      nodes := SS.add e.efrom (SS.add e.eto !nodes);
      Hashtbl.replace adj e.efrom
        (e.eto :: (try Hashtbl.find adj e.efrom with Not_found -> [])))
    edges;
  List.iter
    (fun comp ->
      match comp with
      | [] | [ _ ] -> ()
      | _ ->
        let inside =
          List.filter
            (fun e -> List.mem e.efrom comp && List.mem e.eto comp)
            edges
        in
        let site =
          List.fold_left
            (fun best e ->
              match best with
              | None -> Some e
              | Some b ->
                if (e.efile, e.eline) < (b.efile, b.eline) then Some e
                else best)
            None inside
        in
        let file, line =
          match site with Some e -> (e.efile, e.eline) | None -> ("", 0)
        in
        emit_at file line "src-lock-order-cycle"
          "potential deadlock: lock acquisition cycle between %s"
          (String.concat " <-> " comp))
    (sccs (SS.elements !nodes) adj);
  (* declared-order transitive closure *)
  let declared = Hashtbl.create 16 in
  let decl_line = Hashtbl.create 16 in
  List.iter
    (fun (f : Model.file) ->
      List.iter
        (fun (a, b, line) ->
          Hashtbl.replace declared (a, b) ();
          if not (Hashtbl.mem decl_line (a, b)) then
            Hashtbl.replace decl_line (a, b) (f.path, line))
        f.orders)
    files;
  let changed = ref true in
  while !changed do
    changed := false;
    let pairs = Hashtbl.fold (fun k () acc -> k :: acc) declared [] in
    List.iter
      (fun (a, b) ->
        List.iter
          (fun (b', c) ->
            if b = b' && not (Hashtbl.mem declared (a, c)) then begin
              Hashtbl.replace declared (a, c) ();
              (match Hashtbl.find_opt decl_line (a, b) with
              | Some loc -> Hashtbl.replace decl_line (a, c) loc
              | None -> ());
              changed := true
            end)
          pairs)
      pairs
  done;
  (* contradictions among declarations *)
  let reported = Hashtbl.create 4 in
  Hashtbl.iter
    (fun (a, b) () ->
      if a < b && Hashtbl.mem declared (b, a) && not (Hashtbl.mem reported (a, b))
      then begin
        Hashtbl.replace reported (a, b) ();
        let file, line =
          match Hashtbl.find_opt decl_line (a, b) with
          | Some loc -> loc
          | None -> ("", 0)
        in
        emit_at file line "src-lock-order-contradiction"
          "@lock_order declarations order %s and %s both ways" a b
      end)
    declared;
  (* observed edges against declared order *)
  List.iter
    (fun e ->
      if Hashtbl.mem declared (e.eto, e.efrom) then
        emit_at e.efile e.eline "src-lock-order-violation"
          "acquired %s while holding %s, but @lock_order declares %s < %s"
          e.eto e.efrom e.eto e.efrom)
    edges

(* ---- annotation hygiene across the whole set ---- *)

let stale_findings run (files : Model.file list) all_locks =
  let stale (f : Model.file) line l =
    if not (SS.mem l all_locks) then
      Model.emit run.items f.path line `E "src-stale-annotation"
        "annotation names unknown lock %s" l
  in
  List.iter
    (fun (f : Model.file) ->
      Hashtbl.iter
        (fun _ (st : Model.state) ->
          match st.sguard with
          | Model.Guarded l -> stale f st.sline l
          | Model.Confined | Model.Unannotated -> ())
        f.states;
      Hashtbl.iter
        (fun _ (fa : Model.fannot) ->
          List.iter (stale f fa.floc)
            (fa.frequires @ fa.facquires @ fa.fwith_lock))
        f.funs;
      List.iter
        (fun (a, b, line) ->
          stale f line a;
          stale f line b)
        f.orders)
    files

(* ---- entry point ---- *)

let check (files : Model.file list) : result =
  let run = { items = ref []; raw_edges = [] } in
  let models = Hashtbl.create 16 in
  List.iter (fun (f : Model.file) -> Hashtbl.add models f.Model.base f) files;
  let all_locks =
    List.fold_left
      (fun acc (f : Model.file) ->
        Hashtbl.fold
          (fun short _ acc -> SS.add (Model.qualify f.base short) acc)
          f.locks acc)
      SS.empty files
  in
  let summaries = build_summaries files in
  stale_findings run files all_locks;
  List.iter
    (fun (f : Model.file) ->
      walk_file { cfile = f; models; summaries; run })
    files;
  let edges = dedup_edges run.raw_edges in
  order_findings run files edges;
  { items = !(run.items); edges }

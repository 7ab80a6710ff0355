module Json = Rdb_obs.Json

type origin = Bench | Program

type span = {
  id : int;
  name : string;
  layer : string;
  origin : origin;
  domain : int;
  start_ms : float;
  dur_ms : float;
  parent : int option;
  request : int option;
}

type recorder = {
  enabled : bool;
  marker : string -> int -> unit;
  t0 : float;
  mu : Mutex.t;
  mutable next : int;
  mutable spans : span list;
}

let recorder ?(marker = fun _ _ -> ()) ~enabled () =
  {
    enabled;
    marker;
    t0 = Unix.gettimeofday ();
    mu = Mutex.create ();
    next = 0;
    spans = [];
  }

let span r ?parent ?request ~layer name f =
  if not r.enabled then f (-1)
  else begin
    let id =
      Mutex.protect r.mu (fun () ->
          let id = r.next in
          r.next <- id + 1;
          id)
    in
    r.marker "begin" id;
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      r.marker "end" id;
      let s =
        {
          id;
          name;
          layer;
          origin = Bench;
          domain = (Domain.self () :> int);
          start_ms = (start -. r.t0) *. 1000.0;
          dur_ms = (stop -. start) *. 1000.0;
          parent;
          request;
        }
      in
      Mutex.protect r.mu (fun () -> r.spans <- s :: r.spans)
    in
    match f id with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let recorded r =
  Mutex.protect r.mu (fun () -> r.spans)
  |> List.sort (fun a b -> compare (a.start_ms, a.id) (b.start_ms, b.id))

type record = {
  r_name : string;
  r_kind : string;
  r_domain : int;
  r_depth : int;
  r_start_ms : float;
  r_dur_ms : float;
  r_attrs : (string * string) list;
}

let parse_record line =
  match Json.parse_opt line with
  | Some (Json.Obj fields) -> (
    let str k =
      match List.assoc_opt k fields with Some (Json.Str s) -> Some s | _ -> None
    in
    let int k =
      match List.assoc_opt k fields with Some (Json.Int i) -> Some i | _ -> None
    in
    let num k =
      match List.assoc_opt k fields with
      | Some (Json.Float f) -> Some f
      | Some (Json.Int i) -> Some (float_of_int i)
      | _ -> None
    in
    let attrs =
      match List.assoc_opt "attrs" fields with
      | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (k, v) -> match v with Json.Str s -> Some (k, s) | _ -> None)
          kvs
      | _ -> []
    in
    match (str "name", str "kind", int "domain", int "depth", num "start_ms",
           num "dur_ms") with
    | Some n, Some k, Some d, Some dp, Some s, Some du ->
      Some
        {
          r_name = n;
          r_kind = k;
          r_domain = d;
          r_depth = dp;
          r_start_ms = s;
          r_dur_ms = du;
          r_attrs = attrs;
        }
    | _ -> None)
  | _ -> None

let program_layer = function
  | "session.prepare" -> "core.session"
  | "session.plan" | "session.plan_robust" -> "plan"
  | "session.certify" -> "analysis.resource"
  | "session.execute" -> "exec"
  | "reopt.analyze" -> "stats"
  | "serve.request" -> "server.service"
  | name when String.length name > 6 && String.sub name 0 6 = "reopt." ->
    "core.reopt"
  | name -> name

type domain_state = {
  mutable open_bench : int list;  (* innermost first *)
  mutable pending : (int * int) list;  (* (depth, index) awaiting a parent *)
}

let merge ~bench records =
  let first = List.fold_left (fun m s -> Int.max m (s.id + 1)) 0 bench in
  let states = Hashtbl.create 4 in
  let state d =
    match Hashtbl.find_opt states d with
    | Some s -> s
    | None ->
      let s = { open_bench = []; pending = [] } in
      Hashtbl.replace states d s;
      s
  in
  let out = ref [] in
  let parents = Hashtbl.create 256 in
  let next = ref first in
  List.iter
    (fun r ->
      let st = state r.r_domain in
      let marker_id () =
        Option.bind (List.assoc_opt "id" r.r_attrs) int_of_string_opt
      in
      match (r.r_kind, r.r_name) with
      | "event", "perfbench.begin" ->
        Option.iter
          (fun id -> st.open_bench <- id :: st.open_bench)
          (marker_id ())
      | "event", "perfbench.end" ->
        Option.iter
          (fun id -> st.open_bench <- List.filter (( <> ) id) st.open_bench)
          (marker_id ())
      | "span", _ ->
        let id = !next in
        incr next;
        (* every pending record deeper than this one ended inside it *)
        let children, rest =
          List.partition (fun (depth, _) -> depth > r.r_depth) st.pending
        in
        List.iter (fun (_, c) -> Hashtbl.replace parents c id) children;
        st.pending <- (r.r_depth, id) :: rest;
        (match st.open_bench with
         | b :: _ -> Hashtbl.replace parents id b
         | [] -> ());
        out :=
          {
            id;
            name = r.r_name;
            layer = program_layer r.r_name;
            origin = Program;
            domain = r.r_domain;
            start_ms = r.r_start_ms;
            dur_ms = r.r_dur_ms;
            parent = None;
            request = None;
          }
          :: !out
      | _ -> ())
    records;
  bench
  @ List.rev_map (fun s -> { s with parent = Hashtbl.find_opt parents s.id }) !out

let self_times spans =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      Option.iter
        (fun p ->
          Hashtbl.replace covered p
            (s.dur_ms +. Option.value ~default:0.0 (Hashtbl.find_opt covered p)))
        s.parent)
    spans;
  List.map
    (fun s ->
      (s, s.dur_ms -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id)))
    spans

let to_json s =
  let opt = function Some i -> Json.Int i | None -> Json.Null in
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("name", Json.Str s.name);
      ("layer", Json.Str s.layer);
      ( "origin",
        Json.Str (match s.origin with Bench -> "bench" | Program -> "program") );
      ("domain", Json.Int s.domain);
      ("start_ms", Json.Float s.start_ms);
      ("dur_ms", Json.Float s.dur_ms);
      ("parent", opt s.parent);
      ("request", opt s.request);
    ]

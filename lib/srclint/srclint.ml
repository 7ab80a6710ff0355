module Finding = Rdb_analysis.Finding
module Json = Rdb_obs.Json

type item = Model.item = { file : string; line : int; finding : Finding.t }

type race_counts = {
  locks : string list;
  states : int;
  edges : (string * string) list;
}

type exn_counts = {
  functions : int;
  resources : int;
  summaries : (string * Exnflow.sinfo) list;
}

type 'c report = { files : string list; counts : 'c; items : item list }

let racecheck ?(registry = Registry.default) (models : Model.file list) =
  let r = Lockcheck.check models in
  let locks =
    List.concat_map
      (fun (f : Model.file) ->
        Hashtbl.fold
          (fun short _ acc -> Model.qualify f.base short :: acc)
          f.locks [])
      models
    |> List.sort_uniq compare
  in
  let states =
    List.fold_left
      (fun acc (f : Model.file) -> acc + Hashtbl.length f.states)
      0 models
  in
  let edges =
    List.map (fun (e : Lockcheck.edge) -> (e.efrom, e.eto)) r.edges
    |> List.sort_uniq compare
  in
  ({ locks; states; edges }, Registry.check registry models @ r.items)

let exnflow ?handlers ?pinned models =
  let r = Exnflow.check ?handlers ?pinned models in
  ( { functions = List.length r.summaries; resources = r.resources;
      summaries = r.summaries },
    r.items )

let both models =
  let rc, ri = racecheck models and xc, xi = exnflow models in
  ((rc, xc), ri @ xi)

(* Parse errors and bad/dangling annotations, reported once per file
   whichever analyzers run: they share the directive grammar, so a bad
   @cleanup_ok must fail racecheck as much as exnflow. *)
let hygiene (f : Model.file) =
  let items = ref [] in
  Option.iter
    (Model.emit items f.path 1 `E "src-parse-error" "could not parse: %s")
    f.parse_error;
  List.iter
    (fun (i : Model.issue) ->
      let sev, code =
        match i.isev with
        | `Error -> (`E, "src-bad-annotation")
        | `Warning -> (`W, "src-dangling-annotation")
      in
      Model.emit items f.path i.iline sev code "%s" i.itext)
    f.issues;
  !items

let sort_items items =
  let key i =
    ( Finding.rank i.finding.Finding.severity, i.file, i.line,
      i.finding.Finding.code, i.finding.Finding.message )
  in
  List.sort (fun a b -> compare (key a) (key b)) items

let analyze_files check paths =
  let models = List.map Model.load (List.sort compare paths) in
  let counts, items = check models in
  { files = List.map (fun (f : Model.file) -> f.path) models;
    counts;
    items = sort_items (List.concat_map hygiene models @ items) }

let ml_files_under root =
  let out = ref [] in
  let rec go dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
      Array.sort compare entries;
      Array.iter
        (fun name ->
          if name <> "_build" && name <> ".git" then begin
            let p = Filename.concat dir name in
            if Sys.is_directory p then go p
            else if Filename.check_suffix name ".ml" then out := p :: !out
          end)
        entries
  in
  if Sys.file_exists root && Sys.is_directory root then go root;
  List.rev !out

let analyze_tree check ~root = analyze_files check (ml_files_under root)

let find_default_root () =
  let rec up dir n =
    if n > 8 then None
    else if Sys.file_exists (Filename.concat dir "lib/util/pool.ml") then
      Some (Filename.concat dir "lib")
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent (n + 1)
  in
  up (Sys.getcwd ()) 0

let errors r =
  List.filter (fun i -> i.finding.Finding.severity = Finding.Error) r.items

let exit_code r = if errors r <> [] then 1 else 0

let render name header r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s: %d files, %s\n" name (List.length r.files)
    (header r.counts);
  List.iter
    (fun i ->
      Printf.bprintf b "%s:%d: %s\n" i.file i.line
        (Finding.to_string i.finding))
    r.items;
  Printf.bprintf b "%s: %d findings (%d errors)\n" name (List.length r.items)
    (List.length (errors r));
  Buffer.contents b

let render_race =
  render "racecheck" (fun c ->
      Printf.sprintf "%d locks, %d states, %d lock-order edges"
        (List.length c.locks) c.states (List.length c.edges))

let render_exnflow =
  render "exnflow" (fun c ->
      Printf.sprintf "%d functions summarized, %d tracked acquisitions"
        c.functions c.resources)

let to_json fields r =
  let finding i =
    Json.Obj
      [ ("file", Json.Str i.file);
        ("line", Json.Int i.line);
        ( "severity",
          Json.Str (Finding.severity_name i.finding.Finding.severity) );
        ("code", Json.Str i.finding.Finding.code);
        ("message", Json.Str i.finding.Finding.message) ]
  in
  Json.Obj
    ((("files", Json.Int (List.length r.files)) :: fields r.counts)
    @ [ ("findings", Json.List (List.map finding r.items));
        ("errors", Json.Int (List.length (errors r))) ])

let race_to_json =
  to_json (fun c ->
      [ ("locks", Json.List (List.map (fun l -> Json.Str l) c.locks));
        ("states", Json.Int c.states);
        ( "edges",
          Json.List
            (List.map
               (fun (a, b) ->
                 Json.Obj [ ("from", Json.Str a); ("to", Json.Str b) ])
               c.edges) ) ])

let exnflow_to_json =
  to_json (fun c ->
      [ ("functions", Json.Int c.functions);
        ("resources", Json.Int c.resources) ])

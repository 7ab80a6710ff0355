type entry = { suffix : string; required : string list }

let default =
  [ { suffix = "util/pool.ml";
      required = [ "deques"; "rr"; "stop"; "domains"; "state" ] };
    { suffix = "server/plan_cache.ml";
      required = [ "tbl"; "tick"; "plan"; "epoch"; "last_use"; "hits" ] };
    { suffix = "server/service.ml";
      required = [ "generation"; "closed"; "clone_slot" ] };
    { suffix = "server/frontend.ml"; required = [ "fds" ] };
    { suffix = "obs/metrics.ml"; required = [ "shards"; "c"; "s" ] };
    { suffix = "obs/trace.ml"; required = [ "sink"; "depth_key" ] };
    { suffix = "harness/runner.ml"; required = [ "prepared"; "cache" ] } ]

let find_pinned items ~what files suffix =
  match List.find_opt (Model.has_suffix suffix) files with
  | Some f -> Some f
  | None ->
    Model.emit items suffix 0 `E "src-registry-missing-file"
      "%s %s not found in analyzed tree" what suffix;
    None

let check entries (files : Model.file list) : Model.item list =
  let items = ref [] in
  List.iter
    (fun e ->
      match find_pinned items ~what:"registered file" files e.suffix with
      | None -> ()
      | Some f ->
        List.iter
          (fun name ->
            if not (Hashtbl.mem f.states name) then
              Model.emit items f.path 0 `E "src-registry-missing-state"
                "registered state %s not declared in %s (renamed or \
                 removed? update the registry)"
                name e.suffix)
          e.required;
        (* the safety net: no shared state in a registered file may be
           left undeclared *)
        Hashtbl.iter
          (fun _ (st : Model.state) ->
            if st.sguard = Model.Unannotated then
              Model.emit items f.path st.sline `E "src-unannotated-state"
                "state %s in registered file %s lacks @guarded_by/@confined"
                st.sname e.suffix)
          f.states)
    entries;
  !items

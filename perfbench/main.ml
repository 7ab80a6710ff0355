(* The repository benchmark: one command, three workloads, every
   end-to-end metric untraced and every per-layer metric in a separate
   traced run.

     perfbench/run.sh --workload job-reopt|serve-hot|serve-churn
       --seed N --seconds S --trace 0|1 [--data-seed N]

   All workloads run on [Imdb_gen.generate ~scale:0.3] data (every
   plan-quality shape in EXPERIMENTS.md is stable from about 0.2 upward),
   generated from the data seed; the workload seed draws the query order
   and the request and write streams. The program only ever sees SQL text
   and table names.

   - job-reopt: the paper's experiment, cold. Sequential passes over the
     113 JOB queries on one domain; each query goes SQL text -> parse/bind
     -> fresh [Session.prepare] -> [Reopt.run] (trigger 32, Default mode)
     on a fresh session clone with no feedback store, so nothing is
     reused across queries or passes.
   - serve-hot: warm read-only serving. Set-up fills the plan cache with
     the 113 canonical forms (well under the default 256 slots); then
     closed-loop client threads send SQL text, half of it alias-renamed.
     Every read hits, so planning, re-opt and certification drop out.
   - serve-churn: the same clients and mix with re-optimization on
     ([reoptdb serve --reopt 32]), and a seeded table touched every
     [write_every] reads: invalidations, misses that plan, re-optimize and
     certify concurrently with hits, and re-opt write-backs.

   Clients are sys-threads, one per core up to two, with as many service
   worker domains: a closed loop on more domains than cores measures the
   scheduler, not the service.

   Every end-to-end metric is defined on every workload: a "pass" is 113
   operations (one JOB pass on job-reopt, 113 consecutive completed reads
   when serving), pass_s is the median pass wall time and top20_s the 20
   largest latencies of every pass, pooled over the run.

   The last line of stdout is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the lines before it are
   the human-readable report. Exit status 1 on a wrong answer, a
   determinism drift or a broken serving invariant; 2 on a usage error. *)

module Session = Rdb_core.Session
module Reopt = Rdb_core.Reopt
module Trigger = Rdb_core.Trigger
module Feedback = Rdb_core.Feedback
module Estimator = Rdb_card.Estimator
module Executor = Rdb_exec.Executor
module Service = Rdb_server.Service
module Metrics = Rdb_obs.Metrics
module Trace = Rdb_obs.Trace
module Json = Rdb_obs.Json
module Prng = Rdb_util.Prng
module Imdb_gen = Rdb_imdb.Imdb_gen
module Job_queries = Rdb_imdb.Job_queries

let now = Unix.gettimeofday

(* ---- fixed parameters ---- *)

let scale = 0.3
let trigger_threshold = 32.0
let work_budget = Service.default_config.Service.work_budget
let variant_share = 0.5

(* serve-churn makes one write per [write_every] reads across all clients,
   walking seeded permutations of the 15 IMDB tables. Independent draws
   (one per 100 reads per client) left the broad tables in some runs and
   out of others (title is in every query, so touching it empties the
   cache), and put the miss share near one half, where the median falls
   between hit and miss latencies: latency_ms.p50 spread 39% over five
   seeds on a 2-vCPU VM. At this rate about three reads in four miss. *)
let write_every = 32

(* Per-client stream length, rounded up to whole permutations: far more
   reads than a 60 s run completes; a client that runs out wraps around. *)
let stream_reads = 20_000

(* Set-up repetitions per run; set-up time is reported as their median. *)
let job_setups = 5
let serve_setups = 2

let state_dir = ".perfbench"

(* ---- command line ---- *)

type workload = Job_reopt | Serve_hot | Serve_churn

let workloads =
  [
    ("job-reopt", Job_reopt);
    ("serve-hot", Serve_hot);
    ("serve-churn", Serve_churn);
  ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

type args = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  data_seed : int;
}

let usage () =
  prerr_endline
    "usage: perfbench --workload job-reopt|serve-hot|serve-churn --seed N \
     --seconds S --trace 0|1 [--data-seed N]";
  exit 2

let parse_args argv =
  let get conv = function
    | Some v -> (match conv v with Some x -> x | None -> usage ())
    | None -> usage ()
  in
  let rec go acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--"
      ->
      go ((key, value) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let known =
    [ "--workload"; "--seed"; "--seconds"; "--trace"; "--data-seed" ]
  in
  if List.exists (fun (k, _) -> not (List.mem k known)) kv then usage ();
  let find k = List.assoc_opt k kv in
  let opt k default conv =
    match find k with None -> default | v -> get conv v
  in
  let args =
    {
      workload = get (fun w -> List.assoc_opt w workloads) (find "--workload");
      seed = get int_of_string_opt (find "--seed");
      seconds = get float_of_string_opt (find "--seconds");
      trace =
        get (function "0" -> Some false | "1" -> Some true | _ -> None)
          (find "--trace");
      data_seed = opt "--data-seed" 42 int_of_string_opt;
    }
  in
  if args.seconds <= 0.0 then usage ();
  args

(* ---- state kept between runs of one build ---- *)

let ensure_dir path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Sys.mkdir p 0o755 with Sys_error _ when Sys.file_exists p -> ()
    end
  in
  go path

let write_atomically path contents =
  ensure_dir (Filename.dirname path);
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc contents);
  Sys.rename tmp path

let read_file path =
  if Sys.file_exists path then
    Some (In_channel.with_open_bin path In_channel.input_all)
  else None

(* Determinism records and untraced results are keyed by the executable's
   digest, so two builds never share them. *)
let build_id =
  lazy (String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 16)

let data_tag a = Printf.sprintf "d%d" a.data_seed

(* ---- the answer key ---- *)

let imdb_tables = List.map fst Rdb_imdb.Imdb_schema.tables

(* One answer per JOB query, computed by a path the workloads never take: a
   plain Default-mode plan and execution, without Reopt or the plan cache.
   The key for the default data seed is committed next to this file, so a
   build is always checked against answers it did not compute itself; for
   another data seed the key is computed once and kept in [state_dir]. Each
   key carries the digest of its data, which every run checks against the
   data its set-up generated. *)
let answer_key a =
  let committed =
    Filename.concat "perfbench" (Printf.sprintf "answers-%s.txt" (data_tag a))
  in
  let cached =
    Filename.concat state_dir (Printf.sprintf "answers-%s.txt" (data_tag a))
  in
  let path = if Sys.file_exists committed then committed else cached in
  (* Built in a child process: the Default plans of a few queries hold
     large intermediates, and that peak must not count as the run's. *)
  if not (Sys.file_exists path) then begin
    flush_all ();
    match Unix.fork () with
    | 0 ->
      let t0 = now () in
      let catalog = Imdb_gen.generate ~seed:a.data_seed ~scale () in
      let sess = Session.create catalog in
      Session.analyze sess;
      let answers =
        List.map2
          (fun (name, _) q ->
            let p = Session.prepare sess q in
            let plan, _, _ = Session.plan p ~mode:Estimator.Default in
            (name, (Session.execute p plan).Executor.aggs))
          Job_queries.sql (Job_queries.all catalog)
      in
      write_atomically path
        (Answers.to_string
           ~comment:
             (Printf.sprintf
                "JOB answers on Imdb_gen data seed %d, scale %g, by Default-mode \
                 plan + execute.\n\
                 To rebuild: run perfbench/run.sh without perfbench/%s and \
                 copy %s there."
                a.data_seed scale (Filename.basename committed) cached)
           {
             Answers.data = Answers.data_digest catalog ~tables:imdb_tables;
             answers;
           });
      Printf.printf "answer key: built for %s in %.1f s\n%!" (data_tag a)
        (now () -. t0);
      Unix._exit 0
    | child -> (
      match Unix.waitpid [] child with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "perfbench: building the answer key failed")
  end;
  let key = Answers.of_string (Option.get (read_file path)) in
  let names = List.map fst key.Answers.answers in
  if names <> List.map fst Job_queries.sql then
    failwith ("perfbench: " ^ path ^ " does not list the JOB queries in order");
  (path, key.Answers.data, Array.of_list (List.map snd key.Answers.answers))

let same_answer (expected : Value.t list) got =
  List.length expected = List.length got && List.for_all2 Value.equal expected got

(* ---- inputs ---- *)

type inputs = {
  names : string array;
  texts : string array;  (** [0, n): the JOB texts; [n, 2n): alias-renamed *)
  streams : int array array;  (** per client, the texts it reads in turn *)
  writes : string array;  (** the tables serve-churn touches, in turn *)
  digest : string;
}

let make_inputs a ~catalog ~clients =
  let names = Array.of_list (List.map fst Job_queries.sql) in
  let n = Array.length names in
  let variants =
    List.map
      (fun q ->
        Rdb_sql.Unparse.query catalog (Rdb_verify.Query_gen.rename_aliases q))
      (Job_queries.all catalog)
  in
  let texts = Array.of_list (List.map snd Job_queries.sql @ variants) in
  let prng = Prng.create a.seed in
  let streams, writes =
    match a.workload with
    | Job_reopt -> ([||], [||])
    | Serve_hot | Serve_churn ->
      (* Each client reads the queries in seeded permutations, so every run
         holds each query about equally often: per-query costs span three
         orders of magnitude, and with independent draws the mix alone
         moved a short run's throughput. *)
      let streams =
        Array.init clients (fun _ ->
            Array.concat
              (List.init ((stream_reads / n) + 1) (fun _ ->
                   let perm = Array.init n Fun.id in
                   Prng.shuffle prng perm;
                   Array.map
                     (fun q ->
                       if Prng.float prng 1.0 < variant_share then q + n else q)
                     perm)))
      in
      let writes =
        if a.workload = Serve_hot then [||]
        else
          let tables = Array.of_list imdb_tables in
          Array.concat
            (List.init
               (clients * stream_reads / write_every / Array.length tables + 1)
               (fun _ ->
                 let cycle = Array.copy tables in
                 Prng.shuffle prng cycle;
                 cycle))
      in
      (streams, writes)
  in
  let buf = Buffer.create (1 lsl 20) in
  Array.iter (fun t -> Buffer.add_string buf (Digest.string t)) texts;
  Array.iter
    (Array.iter (fun t -> Buffer.add_string buf (Printf.sprintf "r%d;" t)))
    streams;
  Array.iter (fun t -> Buffer.add_string buf (Printf.sprintf "w%s;" t)) writes;
  {
    names;
    texts;
    streams;
    writes;
    digest = Digest.to_hex (Digest.string (Buffer.contents buf));
  }

(* ---- set-up ---- *)

type setup_times = {
  generate_s : float;
  analyze_s : float;
  warm_s : float;
  total_s : float;
}

type setup = {
  catalog : Catalog.t;
  session : Session.t;
  service : Service.t option;
}

(* Run [f c] on [clients] sys-threads and collect the results in order. *)
let on_threads clients f =
  let results = Array.make clients None in
  let threads =
    List.init clients (fun c ->
        Thread.create (fun () -> results.(c) <- Some (f c)) ())
  in
  List.iter Thread.join threads;
  Array.map Option.get results

let serve_config a ~clients =
  {
    Service.default_config with
    jobs = clients;
    reopt = (if a.workload = Serve_churn then Some trigger_threshold else None);
  }

(* Check a serving response against the key, for the JOB query [q]. *)
let judge key q = function
  | Ok (r : Service.response) ->
    if same_answer key.(q) r.Service.r_aggs then Summary.Answered
    else Summary.Wrong
  | Error _ -> Summary.Failed

let setup_once a rec_ ~clients ~key ~texts =
  let t0 = now () in
  let catalog =
    Spans.span rec_ ~layer:"imdb" "bench.generate" (fun _ ->
        Imdb_gen.generate ~seed:a.data_seed ~scale ())
  in
  let t1 = now () in
  let session =
    match a.workload with
    | Job_reopt -> Session.create catalog
    | Serve_hot | Serve_churn ->
      (* as [reoptdb serve]: the serving session carries a feedback store *)
      Session.create ~feedback:(Feedback.create ()) catalog
  in
  Spans.span rec_ ~layer:"stats" "bench.analyze" (fun _ ->
      Session.analyze session);
  let t2 = now () in
  let service, tally =
    match a.workload with
    | Job_reopt -> (None, Summary.empty)
    | Serve_hot | Serve_churn ->
      let service =
        Spans.span rec_ ~layer:"server.service" "bench.service_create" (fun _ ->
            Service.create ~config:(serve_config a ~clients) session)
      in
      let n = Array.length key in
      let tallies =
        Spans.span rec_ ~layer:"server.service" "bench.warm" (fun _ ->
            on_threads clients (fun c ->
                let t = ref Summary.empty in
                for q = 0 to n - 1 do
                  if q mod clients = c then
                    t :=
                      Summary.add !t
                        (judge key q (Service.query service texts.(q)))
                done;
                !t))
      in
      (Some service, Array.fold_left Summary.merge Summary.empty tallies)
  in
  let t3 = now () in
  ( { catalog; session; service },
    {
      generate_s = t1 -. t0;
      analyze_s = t2 -. t1;
      warm_s = t3 -. t2;
      total_s = t3 -. t0;
    },
    tally )

(* Set up [k] times and keep the last; the others are torn down first so
   they neither hold worker domains nor inflate peak memory. *)
let setup a rec_ ~clients ~key ~texts =
  let k = match a.workload with Job_reopt -> job_setups | _ -> serve_setups in
  let rec go i times tally =
    let s, time, t = setup_once a rec_ ~clients ~key ~texts in
    let tally = Summary.merge tally t in
    if i = k then (s, List.rev (time :: times), tally)
    else begin
      Option.iter Service.shutdown s.service;
      Gc.compact ();
      go (i + 1) (time :: times) tally
    end
  in
  go 1 [] Summary.empty

(* ---- measured phase ---- *)

(* One completed operation. [finish] is seconds since the measured phase
   started; [exec_ms], [reopt_steps], [hit] are the program's own
   accounting of it. *)
type op = {
  query : int;
  text : int;  (** index into [inputs.texts] *)
  latency_ms : float;
  finish : float;
  outcome : Summary.outcome;
  exec_ms : float;
  reopt_steps : int;
  hit : bool;
}

type counts = { work : int; dp_pairs : int; steps : int }

type measured = {
  ops : op array;  (** in completion order *)
  windows : (float * float array) list;
      (** per pass of 113 operations: wall seconds, latencies *)
  wall_s : float;
  touches : int;
  job_counts : counts option array list;  (** job-reopt: per pass, per query *)
}

let counter_delta ~before ~after k =
  Metrics.counter after k - Metrics.counter before k

let run_job a rec_ (s : setup) (inp : inputs) key =
  let n = Array.length inp.names in
  let trigger = Trigger.create trigger_threshold in
  let prng = Prng.create a.seed in
  let start = now () in
  let ops = ref [] and windows = ref [] and counts = ref [] in
  let request = ref 0 in
  while List.length !windows < 2 || now () -. start < a.seconds do
    let order = Array.init n Fun.id in
    Prng.shuffle prng order;
    let pass_counts = Array.make n None in
    let lats = Array.make n 0.0 in
    let p0 = now () in
    Array.iteri
      (fun pos q ->
        incr request;
        let sess = Session.with_stats_of s.session in
        let before = Metrics.snapshot () in
        let t0 = now () in
        let result =
          Spans.span rec_ ~request:!request ~layer:"perfbench" "bench.query"
            (fun id ->
              match
                let bound =
                  Spans.span rec_ ~parent:id ~layer:"sql" "bench.parse_bind"
                    (fun _ ->
                      Rdb_sql.Binder.bind s.catalog ~name:inp.names.(q)
                        (Rdb_sql.Parser.parse inp.texts.(q)))
                in
                let bound = match bound with Ok b -> b | Error e -> failwith e in
                let prepared =
                  Spans.span rec_ ~parent:id ~layer:"core.session" "bench.prepare"
                    (fun _ -> Session.prepare sess bound)
                in
                Spans.span rec_ ~parent:id ~layer:"core.reopt" "bench.reopt_run"
                  (fun _ ->
                    Reopt.run ?work_budget ~initial:prepared sess ~trigger
                      ~mode:Estimator.Default bound)
              with
              | o -> Ok o
              | exception e -> Error (Printexc.to_string e))
        in
        let t1 = now () in
        let after = Metrics.snapshot () in
        let outcome, exec_ms, steps =
          match result with
          | Ok o ->
            pass_counts.(q) <-
              Some
                {
                  work = o.Reopt.total_work;
                  dp_pairs = counter_delta ~before ~after "plan.dp_pairs";
                  steps = List.length o.Reopt.steps;
                };
            ( (if same_answer key.(q) o.Reopt.final_exec.Executor.aggs then
                 Summary.Answered
               else Summary.Wrong),
              o.Reopt.total_exec_ms,
              List.length o.Reopt.steps )
          | Error e ->
            Printf.eprintf "perfbench: %s failed: %s\n%!" inp.names.(q) e;
            (Summary.Failed, 0.0, 0)
        in
        lats.(pos) <- (t1 -. t0) *. 1000.0;
        ops :=
          {
            query = q;
            text = q;
            latency_ms = lats.(pos);
            finish = t1 -. start;
            outcome;
            exec_ms;
            reopt_steps = steps;
            hit = false;
          }
          :: !ops)
      order;
    windows := (now () -. p0, lats) :: !windows;
    counts := pass_counts :: !counts
  done;
  {
    ops = Array.of_list (List.rev !ops);
    windows = List.rev !windows;
    wall_s = now () -. start;
    touches = 0;
    job_counts = List.rev !counts;
  }

(* The closed-loop clients of the serving workloads: each sends its next
   read only after the reply to the previous one. On serve-churn, the
   client whose read completes a multiple of [write_every] then makes the
   next write. Positions and counters carry over from the run-in to the
   measured phase. *)
type clients = { pos : int array; reads : int Atomic.t; writes : int Atomic.t }

let drive rec_ (s : setup) (inp : inputs) key (cl : clients) ~start ~continue =
  let service = Option.get s.service in
  let n = Array.length inp.names in
  on_threads (Array.length cl.pos) (fun c ->
      let stream = inp.streams.(c) in
      let ops = ref [] in
      while continue () do
        let i = cl.pos.(c) in
        let t = stream.(i mod Array.length stream) in
        let q = t mod n in
        let request = (c * 10_000_000) + i in
        let t0 = now () in
        let r =
          Spans.span rec_ ~request ~layer:"client" "bench.read" (fun _ ->
              Service.query service inp.texts.(t))
        in
        let t1 = now () in
        let exec_ms, steps, hit =
          match r with
          | Ok r ->
            ( r.Service.r_exec_ms,
              r.Service.r_reopt_steps,
              r.Service.r_cached <> Service.Miss )
          | Error e ->
            Printf.eprintf "perfbench: request %d failed: %s\n%!" request e;
            (0.0, 0, false)
        in
        ops :=
          {
            query = q;
            text = t;
            latency_ms = (t1 -. t0) *. 1000.0;
            finish = t1 -. start;
            outcome = judge key q r;
            exec_ms;
            reopt_steps = steps;
            hit;
          }
          :: !ops;
        let k = Atomic.fetch_and_add cl.reads 1 + 1 in
        if Array.length inp.writes > 0 && k mod write_every = 0 then begin
          let w = Atomic.fetch_and_add cl.writes 1 in
          Spans.span rec_ ~layer:"server.service" "bench.touch" (fun _ ->
              Service.touch_table service
                inp.writes.(w mod Array.length inp.writes))
        end;
        cl.pos.(c) <- i + 1
      done;
      !ops)

(* serve-churn starts from the cache set-up filled and reaches its steady
   miss share only after a few writes: those first reads are not
   measured, so the share does not depend on how many reads a run fits. *)
let run_in (s : setup) (inp : inputs) key ~clients =
  let cl =
    { pos = Array.make clients 0; reads = Atomic.make 0; writes = Atomic.make 0 }
  in
  let reads = if Array.length inp.writes > 0 then 4 * write_every else 0 in
  let off = Spans.recorder ~enabled:false () in
  let ops =
    drive off s inp key cl ~start:(now ()) ~continue:(fun () ->
        Atomic.get cl.reads < reads)
  in
  ( cl,
    Array.fold_left
      (List.fold_left (fun t o -> Summary.add t o.outcome))
      Summary.empty ops )

(* The measured phase lasts [seconds] and at least two passes' worth of
   reads, so every pass-level metric has two windows. *)
let run_serve a rec_ (s : setup) (inp : inputs) key (cl : clients) =
  let n = Array.length inp.names in
  let start = now () in
  let first = Atomic.get cl.reads and writes_before = Atomic.get cl.writes in
  let per_client =
    drive rec_ s inp key cl ~start ~continue:(fun () ->
        Atomic.get cl.reads - first < 2 * n || now () -. start < a.seconds)
  in
  let ops = Array.concat (Array.to_list (Array.map Array.of_list per_client)) in
  Array.sort (fun x y -> Float.compare x.finish y.finish) ops;
  (* a pass's worth of reads, delimited by completion time *)
  let windows =
    List.mapi
      (fun w win ->
        let prev = if w = 0 then 0.0 else ops.((w * n) - 1).finish in
        ( win.(n - 1).finish -. prev,
          Array.map (fun o -> o.latency_ms) win ))
      (Summary.windows ~size:n ops)
  in
  {
    ops;
    windows;
    wall_s = ops.(Array.length ops - 1).finish;
    touches = Atomic.get cl.writes - writes_before;
    job_counts = [];
  }

(* ---- determinism ---- *)

(* job-reopt's deterministic counters must repeat exactly: across the
   passes of this run (each in a different query order) and against the
   first run recorded for this build and data. A drift is the unstable
   equal-cost plan choice showing up before it becomes timing noise. *)
let check_determinism a (inp : inputs) (m : measured) =
  let render pass =
    String.concat "\n"
      (Array.to_list
         (Array.mapi
            (fun q c ->
              match c with
              | Some c ->
                Printf.sprintf "%s exec.work=%d plan.dp_pairs=%d reopt.steps=%d"
                  inp.names.(q) c.work c.dp_pairs c.steps
              | None -> Printf.sprintf "%s failed" inp.names.(q))
            pass))
  in
  match m.job_counts with
  | [] -> []
  | first :: rest ->
    let reference = render first in
    let drifts = ref [] in
    let compare_to label ~expected ~got =
      let es = String.split_on_char '\n' expected
      and gs = String.split_on_char '\n' got in
      if List.length es <> List.length gs then
        drifts := (label ^ ": different query set") :: !drifts
      else
        List.iter2
          (fun e g ->
            if e <> g then
              drifts :=
                Printf.sprintf "%s: expected [%s], got [%s]" label e g
                :: !drifts)
          es gs
    in
    List.iteri
      (fun i p ->
        compare_to (Printf.sprintf "pass %d against pass 1" (i + 2))
          ~expected:reference ~got:(render p))
      rest;
    let path =
      Filename.concat state_dir
        (Printf.sprintf "determinism-%s-%s.txt" (Lazy.force build_id)
           (data_tag a))
    in
    (match read_file path with
     | Some recorded ->
       compare_to "this run against the first recorded run" ~expected:recorded
         ~got:reference
     | None -> write_atomically path reference);
    List.rev !drifts

(* ---- metrics ---- *)

(* The process's peak resident set (VmHWM); Linux only. *)
let peak_rss_mb () =
  let status =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
  in
  match
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> None)
      (String.split_on_char '\n' status)
  with
  | Some mb -> mb
  | None -> failwith "perfbench: no VmHWM line in /proc/self/status"

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

(* The end-to-end metrics BENCHMARK.json gates, each defined and non-zero
   on every workload, and those only printed: p99, which needs 1000 reads,
   and error_rate, which is 0 on a healthy run. *)
let end_to_end a (setups : setup_times list) (m : measured) =
  let lats = Array.map (fun o -> o.latency_ms) m.ops in
  let n_ops = Array.length lats in
  let walls = Array.of_list (List.map fst m.windows) in
  (* The 20 largest of every 113 operations, pooled over the run: on
     job-reopt's whole passes, the paper's per-pass top-20 sum averaged
     over passes; on a short serving run, not a median of two windows. *)
  let pass = List.length Job_queries.sql in
  let top20 =
    Summary.top_sum (20 * n_ops / pass) lats
    /. (float_of_int n_ops /. float_of_int pass)
    /. 1000.0
  in
  let pct p =
    match Summary.percentile ~pct:p lats with
    | Some v -> v
    | None -> nan
  in
  let samples = Printf.sprintf "n=%d" n_ops in
  let windows_note =
    Printf.sprintf "median of %d passes" (Array.length walls)
  in
  let gated =
    [
      metric "setup_s" "s"
        ~note:(Printf.sprintf "median of %d set-ups" (List.length setups))
        (Summary.median (Array.of_list (List.map (fun s -> s.total_s) setups)));
      metric "peak_rss_mb" "MB" (peak_rss_mb ());
      metric "pass_s" "s" ~note:windows_note (Summary.median walls);
      metric "top20_s" "s" ~note:samples top20;
      metric "latency_ms.p50" "ms" ~note:samples (pct 50);
      metric "latency_ms.p90" "ms" ~note:samples (pct 90);
      metric "throughput_qps" "1/s" ~note:samples
        (float_of_int n_ops /. m.wall_s);
    ]
  in
  let printed =
    match a.workload with
    | Job_reopt -> []
    | Serve_hot | Serve_churn ->
      [ metric "latency_ms.p99" "ms" ~note:samples (pct 99) ]
  in
  (gated, printed)

let shares a (m : measured) ~before ~after =
  let d = counter_delta ~before ~after in
  let hits = d "cache.hits" and misses = d "cache.misses" in
  let lookups = hits + misses in
  let ratio x y = if y = 0 then 0.0 else float_of_int x /. float_of_int y in
  let n_ops = Array.length m.ops in
  let triggered =
    match a.workload with
    | Job_reopt ->
      (* distinct queries that re-optimized at least once, of 113 *)
      let seen = Hashtbl.create 128 in
      Array.iter
        (fun o -> if o.reopt_steps > 0 then Hashtbl.replace seen o.query ())
        m.ops;
      ratio (Hashtbl.length seen) (List.length Job_queries.sql)
    | Serve_hot | Serve_churn ->
      ratio
        (Array.fold_left
           (fun acc o -> if o.reopt_steps > 0 then acc + 1 else acc)
           0 m.ops)
        n_ops
  in
  [
    metric "cache.hit_ratio" "ratio" (ratio hits lookups);
    metric "cache.miss_share" "ratio" (ratio misses lookups);
    metric "reopt.triggered_share" "ratio" triggered;
    metric "serve.write_share" "ratio" (ratio m.touches (n_ops + m.touches));
  ]

(* Per-layer metrics of a traced run. [spans] are the measured phase's
   spans (the benchmark's merged with the program's); [outside] are the
   benchmark's own timings of [sql] and [verify.cqnf] on the run's request
   texts, taken after the measured phase on serving workloads. Times and
   counts are per operation (query or read). *)
let per_layer a (setups : setup_times list) (m : measured) ~spans ~outside
    ~before ~after =
  let ops = float_of_int (Int.max 1 (Array.length m.ops)) in
  let d k = float_of_int (counter_delta ~before ~after k) in
  let stat k =
    let get snap =
      match List.assoc_opt k snap.Metrics.stats with
      | Some s -> (float_of_int s.Metrics.count, s.Metrics.sum)
      | None -> (0.0, 0.0)
    in
    let c1, s1 = get after and c0, s0 = get before in
    (c1 -. c0, s1 -. s0)
  in
  let selfs = Spans.self_times spans in
  let sum_named name l =
    List.fold_left
      (fun acc ((s : Spans.span), v) -> if s.name = name then acc +. v else acc)
      0.0 l
  in
  let dur name =
    sum_named name (List.map (fun (s : Spans.span) -> (s, s.dur_ms)) spans)
  in
  let self name = sum_named name selfs in
  let mean name =
    match
      List.filter (fun (s : Spans.span) -> s.name = name) (spans @ outside)
    with
    | [] -> 0.0
    | xs ->
      List.fold_left (fun acc (s : Spans.span) -> acc +. s.dur_ms) 0.0 xs
      /. float_of_int (List.length xs)
  in
  let serving = a.workload <> Job_reopt in
  let sum_ops f = Array.fold_left (fun acc o -> acc +. f o) 0.0 m.ops in
  (* The service runs a cache hit's execution, and a miss's re-opt loop
     and write-back replan, without spans of their own: charge hit
     execution to exec and the optimizer's unspanned time to plan rather
     than to the service's self time. What remains is parse/bind, CQNF
     fingerprint, cache lookup, feedback observation and, on misses, the
     re-opt trigger checks. *)
  let hit_exec = sum_ops (fun o -> if o.hit then o.exec_ms else 0.0) in
  let unspanned_plan =
    if serving then Float.max 0.0 (snd (stat "plan.ms") -. dur "session.plan")
    else 0.0
  in
  let queue = if serving then dur "bench.read" -. dur "serve.request" else 0.0 in
  let setup_median f = Summary.median (Array.of_list (List.map f setups)) in
  let peak_count, peak_sum = stat "exec.peak_rows" in
  (* A client's read span contains the request's spans on a worker domain,
     which containment per domain cannot see: its share is the pool wait. *)
  let by_layer =
    let tbl = Hashtbl.create 16 in
    let add layer t =
      Hashtbl.replace tbl layer
        (t +. Option.value ~default:0.0 (Hashtbl.find_opt tbl layer))
    in
    List.iter
      (fun ((s : Spans.span), t) -> if s.layer <> "client" then add s.layer t)
      selfs;
    if serving then begin
      add "server.service" (-.hit_exec -. unspanned_plan);
      add "exec" hit_exec;
      add "plan" unspanned_plan;
      add "server.service (pool wait)" queue
    end;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v /. ops) :: acc) tbl [])
  in
  ( [
      metric "reopt.trigger_ms" "ms/op" (self "bench.reopt_run" /. ops);
      metric "reopt.analyze_ms" "ms/op" (dur "reopt.analyze" /. ops);
      metric "reopt.materialize_ms" "ms/op" (dur "reopt.materialize" /. ops);
      metric "reopt.replan_ms" "ms/op" (dur "reopt.replan" /. ops);
      metric "reopt.steps" "count/op" (d "reopt.steps" /. ops);
      metric "reopt.temp_rows" "rows/op" (d "reopt.temp_rows" /. ops);
      metric "prepare.ms" "ms/op" (dur "session.prepare" /. ops);
      metric "plan.ms" "ms/op" (snd (stat "plan.ms") /. ops);
      metric "plan.dp_pairs" "count/op" (d "plan.dp_pairs" /. ops);
      metric "plan.built" "count/op" (d "plan.built" /. ops);
      metric "certify.ms" "ms/op" (dur "session.certify" /. ops);
      metric "exec.ms" "ms/op" (sum_ops (fun o -> o.exec_ms) /. ops);
      metric "exec.work" "units/op" (d "exec.work" /. ops);
      metric "exec.peak_rows" "slots"
        (if peak_count = 0.0 then 0.0 else peak_sum /. peak_count);
      metric "serve.queue_ms" "ms/op" (queue /. ops);
      metric "serve.self_ms" "ms/op"
        (if serving then
           (self "serve.request" -. hit_exec -. unspanned_plan) /. ops
         else 0.0);
      metric "sql.parse_bind_ms" "ms" (mean "bench.parse_bind");
      metric "cqnf.us" "us" (1000.0 *. mean "bench.cqnf");
      metric "cache.invalidations" "count/op" (d "cache.invalidations" /. ops);
      metric "cache.evictions" "count/op" (d "cache.evictions" /. ops);
      metric "cache.writebacks" "count/op" (d "cache.writebacks" /. ops);
      metric "setup.generate_s" "s" (setup_median (fun s -> s.generate_s));
      metric "setup.analyze_s" "s" (setup_median (fun s -> s.analyze_s));
      metric "setup.warm_s" "s" (setup_median (fun s -> s.warm_s));
    ],
    by_layer )

(* ---- report ---- *)

let print_metric m =
  if Float.is_nan m.value then
    Printf.printf "  %-22s %14s %-8s %s\n" m.name "n/a" m.unit_
      (m.note ^ ", too few samples")
  else Printf.printf "  %-22s %14.4f %-8s %s\n" m.name m.value m.unit_ m.note

(* Untraced results of this build, kept so that a traced run can report
   its own overhead against their median. *)
let runs_path a =
  Filename.concat state_dir
    (Printf.sprintf "runs-%s-%s-%s.txt" (Lazy.force build_id) (data_tag a)
       (workload_name a.workload))

let record_untraced a metrics =
  let line =
    String.concat " "
      (List.map (fun m -> Printf.sprintf "%s=%.17g" m.name m.value) metrics)
  in
  let prior = Option.value ~default:"" (read_file (runs_path a)) in
  write_atomically (runs_path a) (prior ^ line ^ "\n")

let print_overhead a traced =
  let recorded =
    match read_file (runs_path a) with
    | None -> []
    | Some text ->
      List.concat_map
        (fun line ->
          List.filter_map
            (fun kv ->
              match String.split_on_char '=' kv with
              | [ k; v ] -> Option.map (fun f -> (k, f)) (float_of_string_opt v)
              | _ -> None)
            (String.split_on_char ' ' line))
        (String.split_on_char '\n' text)
  in
  if recorded = [] then
    print_endline
      "tracing overhead: no untraced run of this build recorded yet (run \
       --trace 0 first)"
  else begin
    print_endline "tracing overhead (traced value minus untraced median):";
    List.iter
      (fun m ->
        match
          List.filter_map
            (fun (k, v) -> if k = m.name then Some v else None)
            recorded
        with
        | [] -> ()
        | vs ->
          let med = Summary.median (Array.of_list vs) in
          Printf.printf
            "  %-22s %+14.4f %-8s (%+.1f%% of %.4f, %d untraced runs)\n"
            m.name (m.value -. med) m.unit_
            (100.0 *. (m.value -. med) /. med)
            med (List.length vs))
      traced
  end

let json_line ~correct (t : Summary.tally) metrics =
  let value v =
    (* JSON has no literal for NaN; an undefined metric reads as 0 *)
    if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
  in
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct t.Summary.attempted t.Summary.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf {|%s: {"value": %s, "unit": %s}|}
              (Json.to_string (Json.Str m.name))
              (value m.value)
              (Json.to_string (Json.Str m.unit_)))
          metrics))

(* ---- the traced run's sink ---- *)

(* The program's spans go to a JSON-lines file for the measured phase only;
   the benchmark's own spans stay in memory. Both are merged and written
   out once the run ends. *)
let with_program_trace a f =
  if not a.trace then (f (), [])
  else begin
    let path =
      Filename.concat state_dir
        (Printf.sprintf "program-spans-%d.jsonl" (Unix.getpid ()))
    in
    ensure_dir state_dir;
    Trace.set_sink (Trace.Jsonl (open_out path));
    let result = Fun.protect ~finally:(fun () -> Trace.set_sink Trace.Null) f in
    let lines = In_channel.with_open_text path In_channel.input_lines in
    Sys.remove path;
    (result, List.filter_map Spans.parse_record lines)
  end

let write_trace a spans =
  let path =
    Filename.concat state_dir
      (Printf.sprintf "trace-%s-seed%d.jsonl" (workload_name a.workload) a.seed)
  in
  write_atomically path
    (String.concat ""
       (List.map (fun s -> Json.to_string (Spans.to_json s) ^ "\n") spans));
  path

(* ---- main ---- *)

let () =
  let a = parse_args Sys.argv in
  let nproc = Domain.recommended_domain_count () in
  let clients = match a.workload with Job_reopt -> 1 | _ -> Int.min 2 nproc in
  let jobs = match a.workload with Job_reopt -> 1 | _ -> clients in
  let marker kind id =
    Trace.event ("perfbench." ^ kind) ~attrs:[ ("id", string_of_int id) ]
  in
  let setup_rec = Spans.recorder ~enabled:a.trace () in
  let rec_ = Spans.recorder ~marker ~enabled:a.trace () in
  let outside_rec = Spans.recorder ~enabled:a.trace () in
  let key_path, key_data, key = answer_key a in
  Printf.printf
    "perfbench: workload=%s seed=%d data_seed=%d scale=%g nproc=%d clients=%d \
     jobs=%d trace=%d seconds=%g build=%s\nanswer key: %s\n%!"
    (workload_name a.workload) a.seed a.data_seed scale nproc clients jobs
    (Bool.to_int a.trace) a.seconds (Lazy.force build_id) key_path;
  (* the cache-warm pass reads only the JOB texts themselves *)
  let s, setups, setup_tally =
    setup a setup_rec ~clients ~key
      ~texts:(Array.of_list (List.map snd Job_queries.sql))
  in
  let inputs = make_inputs a ~catalog:s.catalog ~clients in
  Printf.printf
    "inputs: %d queries, %d alias-renamed variants, %d client streams, %d \
     writes, digest %s\n%!"
    (Array.length inputs.names) (Array.length inputs.names)
    (Array.length inputs.streams) (Array.length inputs.writes) inputs.digest;
  let run_in_tally, measure =
    match a.workload with
    | Job_reopt -> (Summary.empty, fun () -> run_job a rec_ s inputs key)
    | Serve_hot | Serve_churn ->
      let cl, tally = run_in s inputs key ~clients in
      (tally, fun () -> run_serve a rec_ s inputs key cl)
  in
  let before = Metrics.snapshot () in
  let m, records = with_program_trace a measure in
  let after = Metrics.snapshot () in
  Option.iter Service.shutdown s.service;
  let tally =
    Array.fold_left (fun t o -> Summary.add t o.outcome) Summary.empty m.ops
  in
  (* ---- correctness ---- *)
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf (fun msg -> problems := msg :: !problems) fmt
  in
  let data = Answers.data_digest s.catalog ~tables:imdb_tables in
  if data <> key_data then
    problem "the generated data (digest %s) is not the data %s was built for \
             (digest %s)"
      data key_path key_data;
  if setup_tally.Summary.wrong > 0 then
    problem "%d wrong answers in the cache-warm pass" setup_tally.Summary.wrong;
  if run_in_tally.Summary.wrong > 0 then
    problem "%d wrong answers in the run-in" run_in_tally.Summary.wrong;
  if tally.Summary.wrong > 0 then
    problem "%d of %d answers differ from the answer key" tally.Summary.wrong
      tally.Summary.attempted;
  List.iter (problem "determinism drift: %s") (check_determinism a inputs m);
  let d = counter_delta ~before ~after in
  let reads = Array.length m.ops in
  (match a.workload with
   | Serve_hot ->
     if d "plan.dp_pairs" <> 0 then
       problem "serve-hot planned on the hot path: plan.dp_pairs +%d"
         (d "plan.dp_pairs");
     if d "cache.hits" + d "cache.misses" <> reads then
       problem "cache.hits %d + cache.misses %d <> %d reads" (d "cache.hits")
         (d "cache.misses") reads
   | Job_reopt | Serve_churn -> ());
  (* ---- report ---- *)
  let gated_e2e, extra_e2e = end_to_end a setups m in
  let setup_median f = Summary.median (Array.of_list (List.map f setups)) in
  Printf.printf
    "set-up: %s s (median generate %.3f s, analyze %.3f s, warm %.3f s)\n"
    (String.concat ", "
       (List.map (fun s -> Printf.sprintf "%.3f" s.total_s) setups))
    (setup_median (fun s -> s.generate_s))
    (setup_median (fun s -> s.analyze_s))
    (setup_median (fun s -> s.warm_s));
  Printf.printf
    "measured: %d operations, %d writes in %.3f s; %d failed (error_rate \
     %.4f)\n"
    reads m.touches m.wall_s tally.Summary.failed (Summary.error_rate tally);
  Printf.printf "passes of %d operations: %s s\n" (Array.length inputs.names)
    (String.concat " "
       (List.map (fun (w, _) -> Printf.sprintf "%.3f" w) m.windows));
  if a.workload <> Job_reopt then
    List.iter
      (fun (label, hit) ->
        let l =
          Array.of_list
            (List.filter_map
               (fun o -> if o.hit = hit then Some o.latency_ms else None)
               (Array.to_list m.ops))
        in
        let p pct =
          match Summary.percentile ~min_beyond:0 ~pct l with
          | Some v -> Printf.sprintf "%.2f" v
          | None -> "n/a"
        in
        Printf.printf "%s: %d reads, latency p50 %s ms, p90 %s ms\n" label
          (Array.length l) (p 50) (p 90))
      [ ("cache hits", true); ("cache misses", false) ];
  Printf.printf "end-to-end (%s):\n" (workload_name a.workload);
  List.iter print_metric (gated_e2e @ extra_e2e);
  print_metric
    (metric "error_rate" "ratio"
       ~note:
         (Printf.sprintf "%d of %d" tally.Summary.failed
            tally.Summary.attempted)
       (Summary.error_rate tally));
  print_endline "shares:";
  List.iter print_metric (shares a m ~before ~after);
  let out_metrics =
    if not a.trace then begin
      record_untraced a gated_e2e;
      gated_e2e
    end
    else begin
      (* sql and verify.cqnf, timed from outside on the run's own request
         texts (job-reopt times parse/bind inside its loop) *)
      (match a.workload with
       | Job_reopt -> ()
       | Serve_hot | Serve_churn ->
         Array.iteri
           (fun i o ->
             let t = o.text in
             if i < 800 then
             let name = inputs.names.(o.query) in
             match
               Spans.span outside_rec ~layer:"sql" "bench.parse_bind" (fun _ ->
                   Rdb_sql.Binder.bind s.catalog ~name
                     (Rdb_sql.Parser.parse inputs.texts.(t)))
             with
             | Ok q ->
               Spans.span outside_rec ~layer:"verify.cqnf" "bench.cqnf" (fun _ ->
                   ignore
                     (Rdb_verify.Cqnf.fingerprint
                        (Rdb_verify.Cqnf.of_query ~catalog:s.catalog q)))
             | Error e -> problem "request text %d does not bind: %s" t e)
           m.ops);
      let spans = Spans.merge ~bench:(Spans.recorded rec_) records in
      let outside = Spans.recorded outside_rec in
      let layer_metrics, by_layer =
        per_layer a setups m ~spans ~outside ~before ~after
      in
      print_endline "per-layer (traced):";
      List.iter print_metric layer_metrics;
      print_endline "self time by layer (ms/op, measured phase):";
      List.iter (fun (l, v) -> Printf.printf "  %-22s %14.4f\n" l v) by_layer;
      print_overhead a gated_e2e;
      let path =
        write_trace a (Spans.recorded setup_rec @ spans @ outside)
      in
      Printf.printf "trace: %d spans (%d from the program) written to %s\n"
        (List.length spans + List.length outside)
        (List.length
           (List.filter (fun (s : Spans.span) -> s.origin = Spans.Program) spans))
        path;
      layer_metrics @ shares a m ~before ~after
    end
  in
  let correct = !problems = [] in
  List.iter (Printf.eprintf "perfbench: FAIL %s\n") (List.rev !problems);
  print_endline (json_line ~correct tally out_metrics);
  exit (if correct then 0 else 1)

open Perfbench

let check = Alcotest.check
let opt_float = Alcotest.(option (float 0.0))
let ints n = Array.init n (fun i -> float_of_int (i + 1))
let pct p xs = Summary.percentile ~pct:p xs
let exact = Alcotest.float 0.0

(* ---- Summary ---- *)

let test_percentile_rank () =
  check opt_float "p90 of 1..100" (Some 90.0) (pct 90 (ints 100));
  check opt_float "p99 of 1..1000" (Some 990.0) (pct 99 (ints 1000));
  check opt_float "p50 of 1..20" (Some 10.0) (pct 50 (ints 20));
  (* input order is irrelevant *)
  let shuffled =
    Array.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1))
  in
  check opt_float "unsorted input" (Some 90.0) (pct 90 shuffled)

let test_percentile_beyond () =
  (* 99 samples: rank 90, only 9 beyond it *)
  check opt_float "p90 needs 100 samples" None (pct 90 (ints 99));
  check opt_float "p99 needs 1000 samples" None (pct 99 (ints 999));
  (* 113 JOB queries: 11 beyond p90 *)
  check opt_float "p90 of one JOB pass" (Some 102.0) (pct 90 (ints 113));
  check opt_float "min_beyond lowered" (Some 2.0)
    (Summary.percentile ~min_beyond:1 ~pct:50 (ints 3));
  check opt_float "empty" None (Summary.percentile ~min_beyond:0 ~pct:50 [||])

let test_median_windows () =
  check exact "odd" 2.0 (Summary.median [| 3.0; 1.0; 2.0 |]);
  check exact "even" 2.5 (Summary.median [| 4.0; 1.0; 3.0; 2.0 |]);
  check Alcotest.int "complete windows only" 3
    (List.length (Summary.windows ~size:113 (Array.make 350 0)));
  check
    Alcotest.(list (array int))
    "window contents" [ [| 1; 2 |]; [| 3; 4 |] ]
    (Summary.windows ~size:2 [| 1; 2; 3; 4; 5 |]);
  check exact "top 2" 9.0 (Summary.top_sum 2 [| 4.0; 1.0; 5.0; 3.0 |]);
  check exact "top k of fewer" 3.0 (Summary.top_sum 20 [| 1.0; 2.0 |])

let test_error_rate () =
  let t =
    List.fold_left Summary.add Summary.empty
      Summary.
        [ Answered; Failed; Answered; Wrong; Failed; Answered; Answered; Answered ]
  in
  check Alcotest.int "attempted" 8 t.Summary.attempted;
  check Alcotest.int "failed" 2 t.Summary.failed;
  check Alcotest.int "wrong" 1 t.Summary.wrong;
  (* a wrong answer is not a failure: it fails the whole run instead *)
  check (Alcotest.float 1e-12) "rate" 0.25 (Summary.error_rate t);
  let both = Summary.merge t (Summary.add Summary.empty Summary.Failed) in
  check (Alcotest.float 1e-12) "merged" (3.0 /. 9.0) (Summary.error_rate both);
  check exact "nothing attempted" 0.0 (Summary.error_rate Summary.empty)

(* ---- Spans ---- *)

let bench id ?parent name dur =
  {
    Spans.id;
    name;
    layer = name;
    origin = Spans.Bench;
    domain = 0;
    start_ms = 0.0;
    dur_ms = dur;
    parent;
    request = None;
  }

let record ?(kind = "span") ?(domain = 0) ?(depth = 0) ?(attrs = []) name dur =
  {
    Spans.r_name = name;
    r_kind = kind;
    r_domain = domain;
    r_depth = depth;
    r_start_ms = 0.0;
    r_dur_ms = dur;
    r_attrs = attrs;
  }

let marker kind id =
  record ~kind:"event"
    ~attrs:[ ("id", string_of_int id) ]
    ("perfbench." ^ kind) 0.0

(* A hand-built run: bench span 0 (10 ms) wraps bench span 1 (6 ms), which
   wraps session.prepare (3 ms) with a nested session.plan (2 ms); after
   span 1 ends, a session.execute (1 ms) runs directly under span 0. On a
   worker domain, serve.request (5 ms) wraps a session.execute (2 ms) and
   belongs to no bench span. Records arrive in the sink's end order. *)
let hand_built () =
  let benches =
    [ bench 0 "bench.query" 10.0; bench 1 ~parent:0 "bench.prepare" 6.0 ]
  in
  let records =
    [
      marker "begin" 0;
      marker "begin" 1;
      record ~depth:1 "session.plan" 2.0;
      record ~domain:1 ~depth:1 "session.execute" 2.0;
      record ~depth:0 "session.prepare" 3.0;
      marker "end" 1;
      record ~domain:1 ~depth:0 "serve.request" 5.0;
      record ~depth:0 "session.execute" 1.0;
      marker "end" 0;
    ]
  in
  Spans.merge ~bench:benches records

let find spans name domain =
  List.find (fun (s : Spans.span) -> s.name = name && s.domain = domain) spans

let test_merge_parents () =
  let spans = hand_built () in
  check Alcotest.int "all spans kept" 7 (List.length spans);
  let parent name domain = (find spans name domain).Spans.parent in
  let id name domain = Some (find spans name domain).Spans.id in
  let p = Alcotest.(option int) in
  check p "plan under prepare" (id "session.prepare" 0) (parent "session.plan" 0);
  check p "prepare under bench 1" (Some 1) (parent "session.prepare" 0);
  check p "execute under bench 0" (Some 0) (parent "session.execute" 0);
  check p "worker root" None (parent "serve.request" 1);
  check p "worker child" (id "serve.request" 1) (parent "session.execute" 1);
  check Alcotest.string "layer of a program span" "core.session"
    (find spans "session.prepare" 0).Spans.layer

let test_self_time () =
  let selfs = Spans.self_times (hand_built ()) in
  let self name domain =
    snd
      (List.find
         (fun ((s : Spans.span), _) -> s.name = name && s.domain = domain)
         selfs)
  in
  let f = Alcotest.float 1e-9 in
  check f "bench 0" 3.0 (self "bench.query" 0);
  check f "bench 1" 3.0 (self "bench.prepare" 0);
  check f "prepare" 1.0 (self "session.prepare" 0);
  check f "plan (leaf)" 2.0 (self "session.plan" 0);
  check f "serve.request" 3.0 (self "serve.request" 1);
  check f "self times sum to the roots' durations" 15.0
    (List.fold_left (fun acc (_, t) -> acc +. t) 0.0 selfs)

let test_recorder () =
  let events = ref [] in
  let r =
    Spans.recorder ~enabled:true
      ~marker:(fun kind id -> events := (kind, id) :: !events)
      ()
  in
  let v =
    Spans.span r ~request:7 ~layer:"outer" "a" (fun id ->
        Spans.span r ~parent:id ~layer:"inner" "b" (fun _ -> 42))
  in
  check Alcotest.int "value passes through" 42 v;
  check
    Alcotest.(list (pair string int))
    "markers bracket each span"
    [ ("begin", 0); ("begin", 1); ("end", 1); ("end", 0) ]
    (List.rev !events);
  (match Spans.recorded r with
   | [ a; b ] ->
     check Alcotest.(option int) "request id" (Some 7) a.Spans.request;
     check Alcotest.(option int) "parent" (Some a.Spans.id) b.Spans.parent
   | _ -> Alcotest.fail "two spans expected");
  let off = Spans.recorder ~enabled:false () in
  check Alcotest.int "disabled id" (-1) (Spans.span off ~layer:"x" "x" Fun.id);
  check Alcotest.int "disabled records nothing" 0
    (List.length (Spans.recorded off))

(* ---- Answers ---- *)

let test_answers_round_trip () =
  let open Rdb_storage in
  let key =
    {
      Answers.data = "0123abcd";
      answers =
        [
          ("1a", [ Value.Str "tab\tnew\nline \"q\" \\"; Value.Int (-7) ]);
          ("1b", [ Value.Null; Value.Str ""; Value.Int 0 ]);
          ("1c", []);
        ];
    }
  in
  let back = Answers.of_string (Answers.to_string ~comment:"two\nlines" key) in
  check Alcotest.string "data" key.data back.data;
  check Alcotest.int "rows" 3 (List.length back.answers);
  List.iter2
    (fun (n, vs) (n', vs') ->
      check Alcotest.string "name" n n';
      check Alcotest.bool ("values of " ^ n) true
        (List.length vs = List.length vs' && List.for_all2 Value.equal vs vs'))
    key.answers back.answers;
  List.iter
    (fun bad ->
      match Answers.of_string bad with
      | _ -> Alcotest.fail ("accepted " ^ String.escaped bad)
      | exception Failure _ -> ())
    [
      "";
      "1a\tI1\n";
      "data x\n1a\tIx\n";
      "data x\n1a\tQ1\n";
      "data x\n1a\t\n";
    ]

let test_data_digest () =
  let open Rdb_storage in
  let schema =
    Schema.make
      [ { Schema.name = "id"; ty = Value.Ty_int }; { name = "s"; ty = Ty_str } ]
  in
  let catalog ids strs =
    let c = Catalog.create () in
    Catalog.add_table c
      (Table.create ~name:"t" ~schema [| Column.Ints ids; Column.Strs strs |]);
    c
  in
  let d ids strs = Answers.data_digest (catalog ids strs) ~tables:[ "t" ] in
  let base = d [| 1; 2 |] [| "a"; "b" |] in
  check Alcotest.string "deterministic" base (d [| 1; 2 |] [| "a"; "b" |]);
  check Alcotest.bool "an int cell changes it" true
    (base <> d [| 1; 3 |] [| "a"; "b" |]);
  check Alcotest.bool "a string cell changes it" true
    (base <> d [| 1; 2 |] [| "a"; "c" |]);
  check Alcotest.bool "cells are delimited" true
    (base <> d [| 1; 2 |] [| "ab"; "" |])

let () =
  Alcotest.run "perfbench"
    [
      ( "summary",
        [
          Alcotest.test_case "percentile rank" `Quick test_percentile_rank;
          Alcotest.test_case "percentile needs ten beyond" `Quick
            test_percentile_beyond;
          Alcotest.test_case "median, windows, top-k" `Quick test_median_windows;
          Alcotest.test_case "error_rate counts failures" `Quick test_error_rate;
        ] );
      ( "spans",
        [
          Alcotest.test_case "merge resolves parents" `Quick test_merge_parents;
          Alcotest.test_case "self time by containment" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ( "answers",
        [
          Alcotest.test_case "key round trip" `Quick test_answers_round_trip;
          Alcotest.test_case "data digest" `Quick test_data_digest;
        ] );
    ]

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Summary.median: empty";
  let s = sorted xs in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Integer rank arithmetic: [0.9 *. 100.] is not 90, and a rank off by
   one silently moves the percentile. *)
let percentile ?(min_beyond = 10) ~pct xs =
  if pct < 1 || pct > 99 then invalid_arg "Summary.percentile: pct";
  let n = Array.length xs in
  let rank = ((pct * n) + 99) / 100 in
  if n = 0 || n - rank < min_beyond then None
  else Some (sorted xs).(rank - 1)

let windows ~size xs =
  if size < 1 then invalid_arg "Summary.windows: size";
  List.init (Array.length xs / size) (fun w -> Array.sub xs (w * size) size)

let top_sum k xs =
  let s = sorted xs in
  let n = Array.length s in
  let acc = ref 0.0 in
  for i = Int.max 0 (n - k) to n - 1 do
    acc := !acc +. s.(i)
  done;
  !acc

type outcome = Answered | Wrong | Failed

type tally = { attempted : int; failed : int; wrong : int }

let empty = { attempted = 0; failed = 0; wrong = 0 }

let add t = function
  | Answered -> { t with attempted = t.attempted + 1 }
  | Wrong -> { t with attempted = t.attempted + 1; wrong = t.wrong + 1 }
  | Failed -> { t with attempted = t.attempted + 1; failed = t.failed + 1 }

let merge a b =
  {
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    wrong = a.wrong + b.wrong;
  }

let error_rate t =
  if t.attempted = 0 then 0.0
  else float_of_int t.failed /. float_of_int t.attempted

type t = {
  entries : (Value.t * float) list;
  by_value : (Value.t, float) Hashtbl.t;
  total : float;
}

let empty = { entries = []; by_value = Hashtbl.create 1; total = 0.0 }

(* The [slots] most frequent of the [n] counted values; [runs] pairs each
   value occurring at least twice with its count, ascending by value. *)
let of_runs ~slots ~n runs =
  if n = 0 then empty
  else begin
    (* a stable sort on the count alone keeps equal counts by value *)
    let sorted =
      List.stable_sort (fun (_, c1) (_, c2) -> Int.compare c2 c1) runs
    in
    let top = List.filteri (fun i _ -> i < slots) sorted in
    let nf = float_of_int n in
    let entries = List.map (fun (v, c) -> (v, float_of_int c /. nf)) top in
    let by_value = Hashtbl.create (List.length entries) in
    List.iter (fun (v, f) -> Hashtbl.replace by_value v f) entries;
    let total = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 entries in
    { entries; by_value; total }
  end

let of_sorted ?(slots = 100) ~equal ~box sorted =
  let n = Array.length sorted in
  let distinct = ref 0 and runs = ref [] and i = ref 0 in
  while !i < n do
    let v = sorted.(!i) in
    let j = ref (!i + 1) in
    while !j < n && equal sorted.(!j) v do incr j done;
    incr distinct;
    if !j - !i >= 2 then runs := (box v, !j - !i) :: !runs;
    i := !j
  done;
  (!distinct, of_runs ~slots ~n (List.rev !runs))

let build ?slots values =
  let sorted =
    Array.of_list (List.filter (fun v -> not (Value.is_null v)) values)
  in
  Array.stable_sort Value.compare sorted;
  snd (of_sorted ?slots ~equal:Value.equal ~box:Fun.id sorted)

let entries t = t.entries
let frequency t v = Hashtbl.find_opt t.by_value v
let total_fraction t = t.total
let count t = List.length t.entries

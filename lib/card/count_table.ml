let empty = Column.null_int

(* Invariant: an empty slot holds key [empty] and count [0.0]. *)
type t = {
  mutable keys : int array;
  mutable counts : Float.Array.t;
  mutable size : int;
}

let create n =
  let cap = ref 8 in
  while 3 * !cap < 4 * n do
    cap := 2 * !cap
  done;
  { keys = Array.make !cap empty; counts = Float.Array.make !cap 0.0; size = 0 }

let length t = t.size

let hash k =
  let h = k * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 29)

(* The slot holding [k], or else the empty slot ending its probe chain
   (linear probing; the table is never full). *)
let[@inline] slot keys k =
  let mask = Array.length keys - 1 in
  let i = ref (hash k land mask) in
  while
    let x = Array.unsafe_get keys !i in
    x <> k && x <> empty
  do
    i := (!i + 1) land mask
  done;
  !i

(* [find empty] lands on an empty slot, whose count is 0.0. *)
let[@inline] find t k = Float.Array.unsafe_get t.counts (slot t.keys k)

let grow t =
  let keys = t.keys and counts = t.counts in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap empty;
  t.counts <- Float.Array.make cap 0.0;
  Array.iteri
    (fun j k ->
      if k <> empty then begin
        let i = slot t.keys k in
        t.keys.(i) <- k;
        Float.Array.set t.counts i (Float.Array.get counts j)
      end)
    keys

let add t k w =
  if k = empty then invalid_arg "Count_table.add: NULL key";
  let i = slot t.keys k in
  Float.Array.set t.counts i (w +. Float.Array.get t.counts i);
  if t.keys.(i) = empty then begin
    t.keys.(i) <- k;
    t.size <- t.size + 1;
    if 4 * t.size > 3 * Array.length t.keys then grow t
  end

let iter f t =
  Array.iteri
    (fun i k -> if k <> empty then f k (Float.Array.get t.counts i))
    t.keys

module Relset = Rdb_util.Relset
module Int_vec = Rdb_util.Int_vec

(* Pair [i] is [(s1.(i), s2.(i))], kept as unboxed bitmasks. *)
type t = { s1 : int array; s2 : int array }

(* Sort keys pack a pair's union size above its emission position. *)
let pos_bits = 32

let build graph =
  let v1 = Int_vec.create ~capacity:256 () and v2 = Int_vec.create ~capacity:256 () in
  let keys = Int_vec.create ~capacity:256 () in
  Dpccp.iter_pairs graph (fun s1 s2 ->
      Int_vec.push keys
        ((Relset.cardinal (Relset.union s1 s2) lsl pos_bits) lor Int_vec.length v1);
      Int_vec.push v1 (s1 :> int);
      Int_vec.push v2 (s2 :> int));
  let n = Int_vec.length keys in
  let keys = Int_vec.unsafe_data keys in
  (* Heap sort of the pairs in reversed emission order, comparing union
     sizes only: the order a consed-up list, [Array.of_list] and
     [Array.sort] on the pairs themselves gave. Heap sort's moves depend
     only on comparison outcomes, so the order within a size level is that
     same permutation. *)
  let order = Array.init n (fun i -> keys.(n - 1 - i)) in
  Array.sort (fun a b -> Int.compare (a lsr pos_bits) (b lsr pos_bits)) order;
  let mask = (1 lsl pos_bits) - 1 in
  let pick v =
    let data = Int_vec.unsafe_data v in
    Array.map (fun k -> data.(k land mask)) order
  in
  { s1 = pick v1; s2 = pick v2 }

let iter t f =
  for i = 0 to Array.length t.s1 - 1 do
    f (Relset.of_int t.s1.(i)) (Relset.of_int t.s2.(i))
  done

let n_pairs t = Array.length t.s1

open Rdb_storage

type t = { data : string; answers : (string * Value.t list) list }

let encode = function
  | Value.Null -> "N"
  | Value.Int i -> "I" ^ string_of_int i
  | Value.Str s -> "S" ^ String.escaped s

let decode field =
  if field = "" then failwith "answer key: empty value";
  let body = String.sub field 1 (String.length field - 1) in
  match field.[0] with
  | 'N' when body = "" -> Value.Null
  | 'I' -> (
    match int_of_string_opt body with
    | Some i -> Value.Int i
    | None -> failwith ("answer key: bad integer " ^ field))
  | 'S' -> Value.Str (Scanf.unescaped body)
  | _ -> failwith ("answer key: bad value " ^ field)

let to_string ?comment t =
  let buf = Buffer.create 8192 in
  Option.iter
    (fun c ->
      List.iter
        (fun l -> Buffer.add_string buf ("# " ^ l ^ "\n"))
        (String.split_on_char '\n' c))
    comment;
  Buffer.add_string buf ("data " ^ t.data ^ "\n");
  List.iter
    (fun (name, values) ->
      Buffer.add_string buf
        (String.concat "\t" (name :: List.map encode values));
      Buffer.add_char buf '\n')
    t.answers;
  Buffer.contents buf

let of_string text =
  let lines =
    List.filter
      (fun l -> l <> "" && l.[0] <> '#')
      (String.split_on_char '\n' text)
  in
  match lines with
  | data :: rows when String.starts_with ~prefix:"data " data ->
    {
      data = String.sub data 5 (String.length data - 5);
      answers =
        List.map
          (fun row ->
            match String.split_on_char '\t' row with
            | name :: values when name <> "" ->
              (name, List.map decode values)
            | _ -> failwith ("answer key: bad line " ^ row))
          rows;
    }
  | _ -> failwith "answer key: no data line"

let data_digest catalog ~tables =
  let digests = Buffer.create 4096 and chunk = Buffer.create 65536 in
  let flush () =
    Buffer.add_string digests (Digest.string (Buffer.contents chunk));
    Buffer.clear chunk
  in
  let add s =
    Buffer.add_string chunk s;
    Buffer.add_char chunk '\000';
    if Buffer.length chunk >= 65536 then flush ()
  in
  List.iter
    (fun name ->
      let table = Catalog.table_exn catalog name in
      add name;
      for c = 0 to Schema.arity (Table.schema table) - 1 do
        add "|";
        match Table.column table c with
        | Column.Ints xs -> Array.iter (fun x -> add (string_of_int x)) xs
        | Column.Strs xs -> Array.iter add xs
      done)
    tables;
  flush ();
  Digest.to_hex (Digest.string (Buffer.contents digests))

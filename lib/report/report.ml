type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let fixed d x =
  let scale = 10. ** float_of_int d in
  Float (Float.round (x *. scale) /. scale)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Shortest of %.15g/%.16g/%.17g that reads back exactly; %.17g
   always does. *)
let add_float b x =
  if not (Float.is_finite x) then Buffer.add_string b "null"
  else begin
    let s =
      List.find
        (fun s -> float_of_string s = x)
        (List.map (fun p -> Printf.sprintf "%.*g" p x) [ 15; 16; 17 ])
    in
    Buffer.add_string b s;
    if String.for_all (function '0' .. '9' | '-' -> true | _ -> false) s then
      Buffer.add_string b ".0"
  end

let add_block b indent opening closing add_item items =
  Buffer.add_char b opening;
  List.iteri
    (fun i item ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (indent + 2) ' ');
      add_item item)
    items;
  Buffer.add_char b '\n';
  Buffer.add_string b (String.make indent ' ');
  Buffer.add_char b closing

let rec add b indent = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float x -> add_float b x
  | String s -> add_string b s
  | List [] -> Buffer.add_string b "[]"
  | Obj [] -> Buffer.add_string b "{}"
  | List vs -> add_block b indent '[' ']' (add b (indent + 2)) vs
  | Obj fields ->
      add_block b indent '{' '}'
        (fun (k, v) ->
          add_string b k;
          Buffer.add_string b ": ";
          add b (indent + 2) v)
        fields

let to_string v =
  let b = Buffer.create 1024 in
  add b 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

let write path v = Out_channel.with_open_text path (fun oc -> output_string oc (to_string v))

let check_writable path =
  (* Appending to an existing file changes nothing; a file created
     only to probe is removed again. *)
  let existed = Sys.file_exists path in
  match open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path with
  | oc ->
      close_out oc;
      if not existed then Sys.remove path;
      Ok ()
  | exception Sys_error msg -> Error msg

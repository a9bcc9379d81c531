type value = Int of int | Float of float | Str of string | Bool of bool

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Floats must parse back as floats: "%.17g" alone prints 2.0 as "2"
   (re-read as Int) and infinities as "inf" (not JSON at all).  Integral
   values keep a ".0" suffix, infinities ride on an overflowing exponent
   (float_of_string "1e999" = infinity), and nan gets a literal the parser
   knows — so [Float f |> value_to_string |> parse] is the identity on
   every float, including [-0.]. *)
let float_to_string f =
  if f <> f then "nan"
  else if f = infinity then "1e999"
  else if f = neg_infinity then "-1e999"
  else
    let s = Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let value_to_string = function
  | Int i -> string_of_int i
  | Float f -> float_to_string f
  | Str s -> "\"" ^ escape s ^ "\""
  | Bool b -> if b then "true" else "false"

let obj fields =
  let field (k, v) = "\"" ^ escape k ^ "\":" ^ value_to_string v in
  "{" ^ String.concat "," (List.map field fields) ^ "}"

(* ----- parser ----- *)

exception Bad of int * string

let parse_flat line =
  let n = String.length line in
  let pos = ref 0 in
  let error msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match line.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> error (Printf.sprintf "expected %C, found %C" c c')
    | None -> error (Printf.sprintf "expected %C, found end of input" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | None -> error "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            if !pos + 4 > n then error "truncated \\u escape";
            let hex = String.sub line !pos 4 in
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some c -> c
              | None -> error ("invalid \\u escape: " ^ hex)
            in
            pos := !pos + 4;
            (* UTF-8 encode the code point (BMP only, which covers
               everything this layer ever emits). *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
          | c -> error (Printf.sprintf "invalid escape \\%c" c));
          loop ())
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char line.[!pos] do
      advance ()
    done;
    let s = String.sub line start (!pos - start) in
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s
    in
    if is_float then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> error ("invalid number: " ^ s)
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> error ("invalid number: " ^ s)
  in
  let parse_value () =
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some 't' ->
      if !pos + 4 <= n && String.sub line !pos 4 = "true" then begin
        pos := !pos + 4;
        Bool true
      end
      else error "invalid literal"
    | Some 'f' ->
      if !pos + 5 <= n && String.sub line !pos 5 = "false" then begin
        pos := !pos + 5;
        Bool false
      end
      else error "invalid literal"
    | Some 'n' ->
      if !pos + 3 <= n && String.sub line !pos 3 = "nan" then begin
        pos := !pos + 3;
        Float nan
      end
      else error "invalid literal"
    | Some ('{' | '[') -> error "nested values are not part of the schema"
    | Some c -> error (Printf.sprintf "unexpected %C" c)
    | None -> error "unexpected end of input"
  in
  match
    skip_ws ();
    expect '{';
    skip_ws ();
    let fields = ref [] in
    (match peek () with
    | Some '}' -> advance ()
    | _ ->
      let rec members () =
        skip_ws ();
        let key = parse_string () in
        if List.mem_assoc key !fields then error ("duplicate key " ^ key);
        skip_ws ();
        expect ':';
        skip_ws ();
        let v = parse_value () in
        fields := (key, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          members ()
        | Some '}' -> advance ()
        | Some c -> error (Printf.sprintf "expected ',' or '}', found %C" c)
        | None -> error "unterminated object"
      in
      members ());
    skip_ws ();
    if !pos <> n then error "trailing garbage after object";
    List.rev !fields
  with
  | fields -> Ok fields
  | exception Bad (at, msg) ->
    Error (Printf.sprintf "byte %d: %s" at msg)

let read_lines path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | data ->
    Ok
      (List.filter
         (fun l -> String.trim l <> "")
         (String.split_on_char '\n' data))

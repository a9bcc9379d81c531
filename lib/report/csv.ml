let needs_quoting s =
  String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s

let escape s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let row fields = String.concat "," (List.map escape fields)

let of_table ~headers ~rows =
  String.concat "\n" (List.map row (headers :: rows)) ^ "\n"

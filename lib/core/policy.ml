type 'sw t = {
  name : string;
  push_out : bool;
  admit : 'sw -> dest:int -> value:int -> Decision.t;
}

let make ~name ~push_out admit = { name; push_out; admit }
let admit t sw ~dest ~value = t.admit sw ~dest ~value

let find name pool =
  let name = String.lowercase_ascii name in
  List.find_opt (fun p -> String.lowercase_ascii p.name = name) pool

type t = {
  name : string;
  push_out : bool;
  admit : Value_switch.t -> dest:int -> value:int -> Decision.t;
}

let make ~name ~push_out admit = { name; push_out; admit }
let admit t sw ~dest ~value = t.admit sw ~dest ~value

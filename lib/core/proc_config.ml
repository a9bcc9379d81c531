type t = { works : int array; buffer : int; speedup : int; max_value : int }

let make ~works ~buffer ?(speedup = 1) ?(max_value = 1) () =
  if Array.length works = 0 then invalid_arg "Proc_config.make: no ports";
  Array.iter
    (fun w -> if w < 1 then invalid_arg "Proc_config.make: work must be >= 1")
    works;
  if buffer < 1 then invalid_arg "Proc_config.make: buffer must be >= 1";
  if speedup < 1 then invalid_arg "Proc_config.make: speedup must be >= 1";
  if max_value < 1 then invalid_arg "Proc_config.make: max_value must be >= 1";
  { works = Array.copy works; buffer; speedup; max_value }

let contiguous ~k ~buffer ?speedup ?max_value () =
  if k < 1 then invalid_arg "Proc_config.contiguous: k must be >= 1";
  make ~works:(Array.init k (fun i -> i + 1)) ~buffer ?speedup ?max_value ()

let uniform ~n ~work ~buffer ?speedup () =
  if n < 1 then invalid_arg "Proc_config.uniform: n must be >= 1";
  make ~works:(Array.make n work) ~buffer ?speedup ()

let bimodal ~n ~cheap ~expensive ?expensive_ports ~buffer ?speedup () =
  if n < 1 then invalid_arg "Proc_config.bimodal: n must be >= 1";
  let expensive_ports =
    match expensive_ports with Some e -> e | None -> max 1 (n / 4)
  in
  if expensive_ports < 1 || expensive_ports > n then
    invalid_arg "Proc_config.bimodal: expensive_ports out of range";
  let works =
    Array.init n (fun i -> if i >= n - expensive_ports then expensive else cheap)
  in
  make ~works ~buffer ?speedup ()

let geometric ~n ?(base = 2) ~buffer ?speedup () =
  if n < 1 then invalid_arg "Proc_config.geometric: n must be >= 1";
  if base < 2 then invalid_arg "Proc_config.geometric: base must be >= 2";
  let works =
    Array.init n (fun i ->
        let rec pow acc j = if j = 0 then acc else pow (acc * base) (j - 1) in
        pow 1 i)
  in
  make ~works ~buffer ?speedup ()

let n t = Array.length t.works
let k t = Array.fold_left max 1 t.works
let work t i = t.works.(i)
let unit_priced t = t.max_value = 1

let inverse_work_sum t =
  Array.fold_left (fun z w -> z +. (1.0 /. float_of_int w)) 0.0 t.works

let pp ppf t =
  Format.fprintf ppf "n=%d B=%d C=%d works=[%s]" (n t) t.buffer t.speedup
    (String.concat ";" (Array.to_list (Array.map string_of_int t.works)));
  if t.max_value > 1 then Format.fprintf ppf " V=%d" t.max_value

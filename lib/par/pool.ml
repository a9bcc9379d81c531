type timing = {
  tasks : int;
  busy_wall : float;
  max_task_wall : float;
  total_wait : float;
  max_wait : float;
  domain_busy : float array;
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  queue : (float * (unit -> unit)) Queue.t; (* enqueue time, task *)
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  progress : int Atomic.t;
  on_tick : (int -> unit) option;
  (* Timing accumulators, guarded by [stats_mutex] (never held together with
     [mutex]); [domain_busy] has one slot per worker, slot 0 for the inline
     pool. *)
  stats_mutex : Mutex.t;
  mutable t_tasks : int;
  mutable t_busy : float;
  mutable t_max_wall : float;
  mutable t_wait : float;
  mutable t_max_wait : float;
  domain_busy : float array;
}

let note t ~idx ~wait ~wall =
  Mutex.lock t.stats_mutex;
  t.t_tasks <- t.t_tasks + 1;
  t.t_busy <- t.t_busy +. wall;
  if wall > t.t_max_wall then t.t_max_wall <- wall;
  t.t_wait <- t.t_wait +. wait;
  if wait > t.t_max_wait then t.t_max_wait <- wait;
  t.domain_busy.(idx) <- t.domain_busy.(idx) +. wall;
  Mutex.unlock t.stats_mutex

let timing t =
  Mutex.lock t.stats_mutex;
  let snap =
    {
      tasks = t.t_tasks;
      busy_wall = t.t_busy;
      max_task_wall = t.t_max_wall;
      total_wait = t.t_wait;
      max_wait = t.t_max_wait;
      domain_busy = Array.copy t.domain_busy;
    }
  in
  Mutex.unlock t.stats_mutex;
  snap

let pp_timing ppf tm =
  if tm.tasks = 0 then Format.fprintf ppf "no tasks"
  else begin
    let n = float_of_int tm.tasks in
    Format.fprintf ppf
      "tasks %d, busy %.3fs (mean %.3fs, max %.3fs), wait %.3fs (mean %.3fs, \
       max %.3fs), domains ["
      tm.tasks tm.busy_wall (tm.busy_wall /. n) tm.max_task_wall tm.total_wait
      (tm.total_wait /. n) tm.max_wait;
    Array.iteri
      (fun i b ->
        if i > 0 then Format.fprintf ppf " ";
        Format.fprintf ppf "%.3fs" b)
      tm.domain_busy;
    Format.fprintf ppf "]"
  end

(* Workers drain the queue even while stopping, so shutdown is graceful:
   every task submitted before [shutdown] runs to completion. *)
let rec worker t idx =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.work_available t.mutex
  done;
  match Queue.take_opt t.queue with
  | None ->
    (* stopping and drained *)
    Mutex.unlock t.mutex
  | Some (enqueued, task) ->
    Mutex.unlock t.mutex;
    let t0 = Unix.gettimeofday () in
    task ();
    note t ~idx ~wait:(t0 -. enqueued) ~wall:(Unix.gettimeofday () -. t0);
    worker t idx

let create ?on_tick ~jobs () =
  if jobs < 0 then invalid_arg "Pool.create: jobs must be non-negative";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      domains = [];
      progress = Atomic.make 0;
      on_tick;
      stats_mutex = Mutex.create ();
      t_tasks = 0;
      t_busy = 0.0;
      t_max_wall = 0.0;
      t_wait = 0.0;
      t_max_wait = 0.0;
      domain_busy = Array.make (max jobs 1) 0.0;
    }
  in
  t.domains <- List.init jobs (fun i -> Domain.spawn (fun () -> worker t i));
  t

let jobs t = t.jobs
let completed t = Atomic.get t.progress

let tick t =
  let n = Atomic.fetch_and_add t.progress 1 + 1 in
  match t.on_tick with None -> () | Some f -> f n

let mapi t f items =
  let items = Array.of_list items in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    (* Per-batch completion latch; [results] and [errors] are published to
       the caller through it (task writes happen-before the decrement, the
       caller reads after observing zero under the same mutex). *)
    let remaining = ref n in
    let batch_mutex = Mutex.create () in
    let batch_done = Condition.create () in
    let task i () =
      (match f i items.(i) with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
      tick t;
      Mutex.lock batch_mutex;
      decr remaining;
      if !remaining = 0 then Condition.signal batch_done;
      Mutex.unlock batch_mutex
    in
    if t.jobs = 0 then begin
      if t.stopping then invalid_arg "Pool: pool has been shut down";
      for i = 0 to n - 1 do
        let t0 = Unix.gettimeofday () in
        task i ();
        note t ~idx:0 ~wait:0.0 ~wall:(Unix.gettimeofday () -. t0)
      done
    end
    else begin
      Mutex.lock t.mutex;
      if t.stopping then begin
        Mutex.unlock t.mutex;
        invalid_arg "Pool: pool has been shut down"
      end;
      let now = Unix.gettimeofday () in
      for i = 0 to n - 1 do
        Queue.add (now, task i) t.queue
      done;
      Condition.broadcast t.work_available;
      Mutex.unlock t.mutex;
      Mutex.lock batch_mutex;
      while !remaining > 0 do
        Condition.wait batch_done batch_mutex
      done;
      Mutex.unlock batch_mutex
    end;
    (* Deterministic failure attribution: earliest submitted task wins. *)
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.to_list
      (Array.map
         (function
           | Some v -> v
           | None -> assert false (* no error => every slot was filled *))
         results)
  end

let map t f items = mapi t (fun _ x -> f x) items

let map_reduce t ~map:f ~reduce ~init items =
  List.fold_left reduce init (map t f items)

let shutdown t =
  Mutex.lock t.mutex;
  if t.stopping then Mutex.unlock t.mutex
  else begin
    t.stopping <- true;
    Condition.broadcast t.work_available;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let with_pool ?on_tick ~jobs f =
  let t = create ?on_tick ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let default_jobs () =
  match Sys.getenv_opt "SMBM_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j > 0 -> j
    | Some 0 -> Domain.recommended_domain_count ()
    | Some _ | None ->
      invalid_arg
        (Printf.sprintf "SMBM_JOBS=%S: expected a non-negative integer" s))
  | None -> Domain.recommended_domain_count ()

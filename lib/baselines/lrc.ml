open Mp_util
open Mp_sim
open Mp_memsim
open Mp_net

(* The twin/diff machinery lives in mp_millipage (shared with millipage's
   RC mode); this alias keeps the baseline self-contained to read. *)
module Twin_diff = Mp_millipage.Twin_diff

(* Fixed parameters: a 16 MB shared object in 4 KB pages, and the costs
   (µs) of the page-based systems this baseline models. *)
let page_size = 4096
let object_size = 16 * 1024 * 1024
let pages = object_size / page_size
let seed = 1
let fault_us = 26.0
let set_prot_us = 12.0
let twin_us = 20.0  (* 4 KB page copy at first write fault *)
let dispatch_us = 21.0
let sync_dispatch_us = 8.0
let wakeup_us = 25.0
let recv_dma_us_per_byte = 0.0086
let header_bytes = 32

type body =
  | Fetch of { req_id : int; page : int; from : int }
  | Fetch_reply of { req_id : int; page : int; data : bytes }
  | Diff_msg of { seq : int; page : int; diff : Twin_diff.t; from : int }
  | Diff_ack of { seq : int }
  | Rel_notice of { from : int; pages : int list }
  | B_enter of { from : int; phase : int }
  | B_release of { phase : int; invalidate : int list }
  | L_acquire of { from : int; lock : int }
  | L_grant of { lock : int; invalidate : int list }
  | L_release of { from : int; lock : int }

let describe = function
  | Fetch _ -> "FETCH"
  | Fetch_reply _ -> "FETCH_REPLY"
  | Diff_msg _ -> "DIFF"
  | Diff_ack _ -> "DIFF_ACK"
  | Rel_notice _ -> "REL_NOTICE"
  | B_enter _ -> "B_ENTER"
  | B_release _ -> "B_RELEASE"
  | L_acquire _ -> "L_ACQUIRE"
  | L_grant _ -> "L_GRANT"
  | L_release _ -> "L_RELEASE"

module Obs = Mp_obs.Recorder
module Breakdown = Mp_millipage.Breakdown

type pstate = Invalid | Clean | Dirty of bytes  (* twin *)

type fetch_wait = { event : Sync.Event.t; mutable waiters : int }

type host_state = {
  id : int;
  vm : Vm.t;
  pstate : pstate array;
  fetching : (int, fetch_wait) Hashtbl.t;  (* page -> waiters *)
  mutable flush_pending : int;
  mutable flush_event : Sync.Event.t option;
  barrier_events : (int, Sync.Event.t) Hashtbl.t;
  lock_waiters : (int, Sync.Event.t Queue.t) Hashtbl.t;
  mutable computing : int;
  bd : Breakdown.t;
}

type lock_state = { mutable held : bool; lock_queue : int Queue.t }

type t = {
  engine : Engine.t;
  obs : Obs.t;
  fabric : body Fabric.t;
  host_states : host_state array;
  (* manager (host 0) bookkeeping *)
  mutable interval : int;
  dirty_log : (int * int) Queue.t array;  (* per page: (interval, writer) *)
  synced : int array;  (* per host: last interval synchronized to *)
  barrier_counts : (int, int) Hashtbl.t;
  locks : (int, lock_state) Hashtbl.t;
  compositions : (int, int array) Hashtbl.t;
  mutable next_off : int;
  mutable next_req : int;
  mutable total_threads : int;
  mutable finished_threads : int;
  counters : Stats.Counters.t;  (* shared with the fabric and every host's vm *)
  diffs : Stats.Counters.counter;
  diff_bytes : Stats.Counters.counter;
  twins : Stats.Counters.counter;
  mutable started : bool;
}

type ctx = { t : t; hs : host_state; mutable barrier_phase : int }

let manager = 0
let name = "lrc"

let hosts t = Array.length t.host_states
let home t page = page mod hosts t

let fresh_req t =
  t.next_req <- t.next_req + 1;
  t.next_req

let send t ~src ~dst ~bytes body = Fabric.send t.fabric ~src ~dst ~bytes body

let set_page_prot (h : host_state) page prot =
  Engine.delay set_prot_us;
  Vm.protect h.vm ~view:0 ~vpage:page prot

let page_bytes (h : host_state) page =
  Vm.priv_read_bytes h.vm ~off:(page * page_size) ~len:page_size

(* ------------------------------------------------------------------ *)
(* Manager bookkeeping                                                 *)
(* ------------------------------------------------------------------ *)

let manager_record_release t ~from pages =
  t.interval <- t.interval + 1;
  List.iter (fun page -> Queue.add (t.interval, from) t.dirty_log.(page)) pages

let invalidation_list t ~for_host =
  let since = t.synced.(for_host) in
  let out = ref [] in
  Array.iteri
    (fun page log ->
      let dirty_by_other = ref false in
      Queue.iter
        (fun (interval, writer) ->
          if interval > since && writer <> for_host then dirty_by_other := true)
        log;
      if !dirty_by_other then out := page :: !out)
    t.dirty_log;
  t.synced.(for_host) <- t.interval;
  (* prune log entries everyone has seen *)
  let min_synced = Array.fold_left min max_int t.synced in
  Array.iter
    (fun log ->
      let rec prune () =
        match Queue.peek_opt log with
        | Some (interval, _) when interval <= min_synced ->
          ignore (Queue.take log);
          prune ()
        | Some _ | None -> ()
      in
      prune ())
    t.dirty_log;
  !out

(* ------------------------------------------------------------------ *)
(* Host-side actions                                                   *)
(* ------------------------------------------------------------------ *)

let invalidate_pages _t (h : host_state) pages =
  List.iter
    (fun page ->
      match h.pstate.(page) with
      | Clean ->
        h.pstate.(page) <- Invalid;
        Vm.protect h.vm ~view:0 ~vpage:page Prot.No_access
      | Invalid -> ()
      | Dirty _ ->
        (* data-race-free applications never have a page concurrently dirty
           here and at another host at synchronization time; keep our copy *)
        ())
    pages

(* Flush every dirty page: diff against twin, ship to home, wait for acks,
   then notify the manager (eager release consistency). *)
let flush ctx =
  let t = ctx.t and h = ctx.hs in
  let dirtied = ref [] in
  (* acks may arrive while later diffs are still being created (the creation
     delay suspends this thread), so the pending counter must be live from
     the first send *)
  let ev = Sync.Event.create ~auto_reset:false ~name:"lrc.flush" () in
  h.flush_pending <- 0;
  h.flush_event <- Some ev;
  Array.iteri
    (fun page state ->
      match state with
      | Dirty twin ->
        Engine.delay (Twin_diff.creation_cost_us ~page_bytes:page_size);
        let current = page_bytes h page in
        let diff = Twin_diff.diff ~twin ~current in
        h.pstate.(page) <- Clean;
        Vm.protect h.vm ~view:0 ~vpage:page Prot.Read_only;
        Engine.delay set_prot_us;
        if not (Twin_diff.is_empty diff) then begin
          dirtied := page :: !dirtied;
          Stats.Counters.incr t.diffs;
          Stats.Counters.add t.diff_bytes (Twin_diff.encoded_bytes diff);
          let hm = home t page in
          if hm = h.id then
            (* we are the home: our memory is already the committed copy *)
            ()
          else begin
            h.flush_pending <- h.flush_pending + 1;
            let seq = fresh_req t in
            send t ~src:h.id ~dst:hm
              ~bytes:(header_bytes + Twin_diff.encoded_bytes diff)
              (Diff_msg { seq; page; diff; from = h.id })
          end
        end
      | Clean | Invalid -> ())
    h.pstate;
  while h.flush_pending > 0 do
    Sync.Event.reset ev;
    if h.flush_pending > 0 then Sync.Event.wait ev
  done;
  h.flush_event <- None;
  if !dirtied <> [] then
    send t ~src:h.id ~dst:manager ~bytes:header_bytes
      (Rel_notice { from = h.id; pages = !dirtied })

(* Bring a page in from its home (or validate it locally when we are the
   home, whose physical memory always holds the committed copy). *)
let fetch_page ctx page =
  let t = ctx.t and h = ctx.hs in
  let hm = home t page in
  if hm = h.id then begin
    h.pstate.(page) <- Clean;
    set_page_prot h page Prot.Read_only
  end
  else begin
    let w =
      match Hashtbl.find_opt h.fetching page with
      | Some w -> w
      | None ->
        let w =
          { event = Sync.Event.create ~auto_reset:false ~name:"lrc.fetch" (); waiters = 0 }
        in
        Hashtbl.add h.fetching page w;
        send t ~src:h.id ~dst:hm ~bytes:header_bytes
          (Fetch { req_id = fresh_req t; page; from = h.id });
        w
    in
    w.waiters <- w.waiters + 1;
    Sync.Event.wait w.event;
    Engine.delay wakeup_us
  end

let on_fault ctx (f : Vm.fault) =
  let t = ctx.t and h = ctx.hs in
  let t0 = Engine.now t.engine in
  let span = fresh_req t in
  let access = match f.access with Prot.Read -> Mp_obs.Event.Read | _ -> Mp_obs.Event.Write in
  Obs.fault_begin t.obs ~time:t0 ~host:h.id ~span ~access ~addr:f.addr ~view:f.view
    ~vpage:f.vpage;
  Engine.delay fault_us;
  let page = f.vpage in
  (match (f.access, h.pstate.(page)) with
  | Prot.Read, Invalid -> fetch_page ctx page
  | Prot.Write, Invalid ->
    fetch_page ctx page;
    (* fall through: the retry faults again on write and lands in Clean *)
    ()
  | Prot.Write, Clean ->
    Engine.delay twin_us;
    Stats.Counters.incr t.twins;
    h.pstate.(page) <- Dirty (Twin_diff.twin (page_bytes h page));
    set_page_prot h page Prot.Read_write
  | Prot.Read, (Clean | Dirty _) | Prot.Write, Dirty _ ->
    failwith "lrc: fault on an accessible page");
  let dt = Engine.now t.engine -. t0 in
  (match f.access with
  | Prot.Read -> h.bd.Breakdown.read_fault <- h.bd.Breakdown.read_fault +. dt
  | Prot.Write -> h.bd.Breakdown.write_fault <- h.bd.Breakdown.write_fault +. dt);
  Obs.fault_end t.obs ~time:(Engine.now t.engine) ~host:h.id ~span

(* ------------------------------------------------------------------ *)
(* Message dispatch (runs in each host's server process)               *)
(* ------------------------------------------------------------------ *)

let on_message t (h : host_state) (m : body Fabric.msg) =
  match m.Fabric.body with
  | Fetch { req_id; page; from } ->
    Engine.delay dispatch_us;
    let data = page_bytes h page in
    send t ~src:h.id ~dst:from ~bytes:page_size (Fetch_reply { req_id; page; data })
  | Fetch_reply { req_id = _; page; data } -> (
    Engine.delay
      (dispatch_us +. (recv_dma_us_per_byte *. float_of_int page_size));
    (match h.pstate.(page) with
    | Invalid ->
      Vm.priv_write_bytes h.vm ~off:(page * page_size) data;
      h.pstate.(page) <- Clean;
      set_page_prot h page Prot.Read_only
    | Clean | Dirty _ -> ());
    match Hashtbl.find_opt h.fetching page with
    | Some w ->
      Hashtbl.remove h.fetching page;
      Sync.Event.set w.event
    | None -> ())
  | Diff_msg { seq; page; diff; from } ->
    Engine.delay (dispatch_us +. Twin_diff.apply_cost_us diff);
    let target = page_bytes h page in
    Twin_diff.apply diff target;
    Vm.priv_write_bytes h.vm ~off:(page * page_size) target;
    send t ~src:h.id ~dst:from ~bytes:header_bytes (Diff_ack { seq })
  | Diff_ack _ ->
    Engine.delay sync_dispatch_us;
    h.flush_pending <- h.flush_pending - 1;
    if h.flush_pending = 0 then
      Option.iter Sync.Event.set h.flush_event
  | Rel_notice { from; pages } ->
    Engine.delay sync_dispatch_us;
    manager_record_release t ~from pages
  | B_enter { from = _; phase } ->
    Engine.delay sync_dispatch_us;
    let count = 1 + Option.value ~default:0 (Hashtbl.find_opt t.barrier_counts phase) in
    if count >= t.total_threads then begin
      Hashtbl.remove t.barrier_counts phase;
      for dst = 0 to hosts t - 1 do
        let invalidate = invalidation_list t ~for_host:dst in
        send t ~src:manager ~dst
          ~bytes:(header_bytes + (4 * List.length invalidate))
          (B_release { phase; invalidate })
      done
    end
    else Hashtbl.replace t.barrier_counts phase count
  | B_release { phase; invalidate } ->
    Engine.delay sync_dispatch_us;
    invalidate_pages t h invalidate;
    let ev =
      match Hashtbl.find_opt h.barrier_events phase with
      | Some ev -> ev
      | None ->
        let ev = Sync.Event.create ~auto_reset:false ~name:"lrc.barrier" () in
        Hashtbl.add h.barrier_events phase ev;
        ev
    in
    Sync.Event.set ev
  | L_acquire { from; lock } -> (
    Engine.delay sync_dispatch_us;
    let s =
      match Hashtbl.find_opt t.locks lock with
      | Some s -> s
      | None ->
        let s = { held = false; lock_queue = Queue.create () } in
        Hashtbl.add t.locks lock s;
        s
    in
    let grant dst =
      let invalidate = invalidation_list t ~for_host:dst in
      send t ~src:manager ~dst
        ~bytes:(header_bytes + (4 * List.length invalidate))
        (L_grant { lock; invalidate })
    in
    if s.held then Queue.add from s.lock_queue
    else begin
      s.held <- true;
      grant from
    end)
  | L_grant { lock; invalidate } -> (
    Engine.delay sync_dispatch_us;
    invalidate_pages t h invalidate;
    match Hashtbl.find_opt h.lock_waiters lock with
    | Some q when not (Queue.is_empty q) -> Sync.Event.set (Queue.take q)
    | Some _ | None -> failwith "lrc: LOCK grant with no local waiter")
  | L_release { from = _; lock } -> (
    Engine.delay sync_dispatch_us;
    let s = Hashtbl.find t.locks lock in
    match Queue.take_opt s.lock_queue with
    | Some next ->
      let invalidate = invalidation_list t ~for_host:next in
      send t ~src:manager ~dst:next
        ~bytes:(header_bytes + (4 * List.length invalidate))
        (L_grant { lock; invalidate })
    | None -> s.held <- false)

(* ------------------------------------------------------------------ *)
(* Construction / init phase                                           *)
(* ------------------------------------------------------------------ *)

let create engine ~hosts:nhosts ?(polling = Polling.nt_mode) () =
  if nhosts <= 0 then invalid_arg "Lrc.create: hosts";
  let counters = Stats.Counters.create () in
  let fabric = Fabric.create engine ~hosts:nhosts ~counters ~polling ~seed () in
  let mk_host id =
    let obj = Memobject.create ~page_size ~size:object_size () in
    let vm = Vm.create ~counters obj in
    ignore (Vm.map_view vm Prot.No_access);
    ignore (Vm.map_privileged_view vm);
    {
      id;
      vm;
      pstate = Array.make pages Invalid;
      fetching = Hashtbl.create 16;
      flush_pending = 0;
      flush_event = None;
      barrier_events = Hashtbl.create 16;
      lock_waiters = Hashtbl.create 8;
      computing = 0;
      bd = Breakdown.create ();
    }
  in
  let t =
    {
      engine;
      obs = Obs.create ();
      fabric;
      host_states = Array.init nhosts mk_host;
      interval = 0;
      dirty_log = Array.init pages (fun _ -> Queue.create ());
      synced = Array.make nhosts 0;
      barrier_counts = Hashtbl.create 16;
      locks = Hashtbl.create 8;
      compositions = Hashtbl.create 8;
      next_off = 0;
      next_req = 0;
      total_threads = 0;
      finished_threads = 0;
      counters;
      diffs = Stats.Counters.counter counters "diffs";
      diff_bytes = Stats.Counters.counter counters "diff.bytes";
      twins = Stats.Counters.counter counters "twins";
      started = false;
    }
  in
  Fabric.attach_obs fabric ~obs:t.obs ~describe;
  Array.iter
    (fun h -> Fabric.set_handler fabric ~host:h.id (fun m -> on_message t h m))
    t.host_states;
  t

let align8 n = (n + 7) land lnot 7

let malloc t size =
  if t.started then invalid_arg "Lrc.malloc: allocation only in the init phase";
  if size <= 0 then invalid_arg "Lrc.malloc: size";
  let next_page = ((t.next_off / page_size) + 1) * page_size in
  let off =
    if size <= page_size then
      if (t.next_off mod page_size) + size <= page_size then t.next_off else next_page
    else if t.next_off mod page_size = 0 then t.next_off
    else next_page
  in
  if off + size > object_size then failwith "Lrc.malloc: out of memory";
  t.next_off <- align8 (off + size);
  Vm.address t.host_states.(0).vm ~view:0 off

(* Initialization writes land in the page's home copy, where readers will
   fetch from. *)
let init_write t addr write =
  let _view, page, off = Vm.translate t.host_states.(0).vm addr in
  let hm = home t page in
  write t.host_states.(hm).vm off

let init_write_f64 t addr v =
  init_write t addr (fun vm off ->
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 (Int64.bits_of_float v);
      Vm.priv_write_bytes vm ~off b)

let init_write_int t addr v =
  init_write t addr (fun vm off ->
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 (Int64.of_int v);
      Vm.priv_write_bytes vm ~off b)

let init_write_i32 t addr v =
  init_write t addr (fun vm off ->
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 v;
      Vm.priv_write_bytes vm ~off b)

let init_write_f32 t addr v = init_write_i32 t addr (Int32.bits_of_float v)

let spawn t ~host ?name f =
  if host < 0 || host >= hosts t then invalid_arg "Lrc.spawn: bad host";
  t.total_threads <- t.total_threads + 1;
  let name = Option.value ~default:(Printf.sprintf "app.h%d" host) name in
  let ctx = { t; hs = t.host_states.(host); barrier_phase = 0 } in
  (* fault handler must capture the ctx of the running thread; with one ctx
     per spawn and the handler installed per host, route through a cell *)
  Engine.spawn t.engine ~name (fun () ->
      f ctx;
      t.finished_threads <- t.finished_threads + 1)

let run t =
  t.started <- true;
  (* install fault handlers late so each host has one; the handler needs a
     ctx only for engine access, which host state provides *)
  Engine.run t.engine;
  if t.finished_threads < t.total_threads then
    failwith
      (Printf.sprintf "lrc: %d/%d application threads did not finish"
         (t.total_threads - t.finished_threads)
         t.total_threads)

(* ------------------------------------------------------------------ *)
(* Thread operations                                                   *)
(* ------------------------------------------------------------------ *)

let host ctx = ctx.hs.id

let with_handler ctx f =
  (* the Vm fault handler is shared per host; bind it to this ctx for the
     duration of the access (threads interleave only at suspension points,
     and the handler captures what it needs on entry) *)
  Vm.set_fault_handler ctx.hs.vm (fun fault -> on_fault ctx fault);
  f ()

let read_f64 ctx addr = with_handler ctx (fun () -> Vm.read_f64 ctx.hs.vm addr)
let write_f64 ctx addr v = with_handler ctx (fun () -> Vm.write_f64 ctx.hs.vm addr v)
let read_int ctx addr = with_handler ctx (fun () -> Vm.read_int ctx.hs.vm addr)
let write_int ctx addr v = with_handler ctx (fun () -> Vm.write_int ctx.hs.vm addr v)
let read_i32 ctx addr = with_handler ctx (fun () -> Vm.read_i32 ctx.hs.vm addr)
let write_i32 ctx addr v = with_handler ctx (fun () -> Vm.write_i32 ctx.hs.vm addr v)
let read_f32 ctx addr = Int32.float_of_bits (read_i32 ctx addr)
let write_f32 ctx addr v = write_i32 ctx addr (Int32.bits_of_float v)
let read_u8 ctx addr = with_handler ctx (fun () -> Vm.read_u8 ctx.hs.vm addr)
let write_u8 ctx addr v = with_handler ctx (fun () -> Vm.write_u8 ctx.hs.vm addr v)

let charge_synch (h : host_state) dt = h.bd.Breakdown.synch <- h.bd.Breakdown.synch +. dt

let compute ctx us =
  if us < 0.0 then invalid_arg "Lrc.compute: negative time";
  let t = ctx.t and h = ctx.hs in
  h.computing <- h.computing + 1;
  if h.computing = 1 then Fabric.set_busy t.fabric ~host:h.id true;
  Engine.delay us;
  h.bd.Breakdown.compute <- h.bd.Breakdown.compute +. us;
  h.computing <- h.computing - 1;
  if h.computing = 0 then Fabric.set_busy t.fabric ~host:h.id false

let barrier ctx =
  let t = ctx.t and h = ctx.hs in
  let t0 = Engine.now t.engine in
  flush ctx;
  let phase = ctx.barrier_phase in
  ctx.barrier_phase <- phase + 1;
  let ev =
    match Hashtbl.find_opt h.barrier_events phase with
    | Some ev -> ev
    | None ->
      let ev = Sync.Event.create ~auto_reset:false ~name:"lrc.barrier" () in
      Hashtbl.add h.barrier_events phase ev;
      ev
  in
  Obs.barrier_enter t.obs ~time:(Engine.now t.engine) ~host:h.id ~bphase:phase;
  send t ~src:h.id ~dst:manager ~bytes:header_bytes (B_enter { from = h.id; phase });
  Sync.Event.wait ev;
  Engine.delay wakeup_us;
  Obs.barrier_exit t.obs ~time:(Engine.now t.engine) ~host:h.id ~bphase:phase
    ~waited_us:(Engine.now t.engine -. t0);
  charge_synch h (Engine.now t.engine -. t0)

let lock ctx l =
  let t = ctx.t and h = ctx.hs in
  let ev = Sync.Event.create ~name:"lrc.lock" () in
  let q =
    match Hashtbl.find_opt h.lock_waiters l with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.add h.lock_waiters l q;
      q
  in
  Queue.add ev q;
  let t0 = Engine.now t.engine in
  Obs.lock_acquire t.obs ~time:t0 ~host:h.id ~lock:l;
  send t ~src:h.id ~dst:manager ~bytes:header_bytes (L_acquire { from = h.id; lock = l });
  Sync.Event.wait ev;
  Engine.delay wakeup_us;
  Obs.lock_grant t.obs ~time:(Engine.now t.engine) ~host:h.id ~lock:l
    ~waited_us:(Engine.now t.engine -. t0);
  charge_synch h (Engine.now t.engine -. t0)

let unlock ctx l =
  let t = ctx.t and h = ctx.hs in
  let t0 = Engine.now t.engine in
  flush ctx;
  Obs.lock_release t.obs ~time:(Engine.now t.engine) ~host:h.id ~lock:l;
  send t ~src:h.id ~dst:manager ~bytes:header_bytes (L_release { from = h.id; lock = l });
  charge_synch h (Engine.now t.engine -. t0)

let prefetch ctx addr _access =
  let t = ctx.t and h = ctx.hs in
  let _view, page, _off = Vm.translate h.vm addr in
  if h.pstate.(page) = Invalid then begin
    let hm = home t page in
    if hm <> h.id && not (Hashtbl.mem h.fetching page) then begin
      let w =
        { event = Sync.Event.create ~auto_reset:false ~name:"lrc.fetch" (); waiters = 0 }
      in
      Hashtbl.add h.fetching page w;
      send t ~src:h.id ~dst:hm ~bytes:header_bytes
        (Fetch { req_id = fresh_req t; page; from = h.id })
    end
  end

let push_to_all ctx _addr =
  let t0 = Engine.now ctx.t.engine in
  flush ctx;
  charge_synch ctx.hs (Engine.now ctx.t.engine -. t0)

(* Composed views, approximated: remember the member addresses and fetch
   them as a pipeline of page requests — the first read blocks while the
   rest stream in behind it. *)
let compose t addrs =
  let id = fresh_req t in
  Hashtbl.add t.compositions id (Array.copy addrs);
  id

let fetch_group ctx group_id =
  let t = ctx.t in
  match Hashtbl.find_opt t.compositions group_id with
  | None -> invalid_arg "Lrc.fetch_group: unknown composed view"
  | Some addrs ->
    Array.iter (fun addr -> prefetch ctx addr Prot.Read) addrs;
    (* touch each member so the call blocks until everything has landed *)
    Array.iter (fun addr -> ignore (read_u8 ctx addr)) addrs

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let messages_sent t = Stats.Counters.get t.counters "send.count"
let bytes_sent t = Stats.Counters.get t.counters "send.bytes"
let read_faults t = Stats.Counters.get t.counters "fault.read"
let write_faults t = Stats.Counters.get t.counters "fault.write"

let breakdown t =
  Breakdown.to_list
    (Array.fold_left (fun acc h -> Breakdown.add acc h.bd) (Breakdown.zero ())
       t.host_states)

let obs t = t.obs
let profile t = Mp_obs.Profile.attached t.obs
let diffs_created t = Stats.Counters.value t.diffs
let diff_bytes t = Stats.Counters.value t.diff_bytes
let twins_created t = Stats.Counters.value t.twins


open Mp_util
open Mp_sim
open Mp_memsim
open Mp_multiview
open Mp_net

module Twin_diff = Mp_millipage.Twin_diff

type body =
  | Fetch of { req_id : int; mp_id : int; from : int }
  | Fetch_reply of { req_id : int; mp_id : int; data : bytes }
  | Diff_msg of { seq : int; mp_id : int; diff : Twin_diff.t; from : int }
  | Diff_ack of { seq : int }
  | Rel_notice of { from : int; mp_ids : int list }
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

type mstate = Invalid | Clean | Dirty of bytes  (* twin *)

type fetch_wait = { event : Sync.Event.t }

type host_state = {
  id : int;
  vm : Vm.t;
  mstate : (int, mstate) Hashtbl.t;  (* mp_id -> state; absent = Invalid *)
  fetching : (int, fetch_wait) Hashtbl.t;
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
  cost : Lrc.Cost.t;
  obs : Obs.t;
  page_size : int;
  object_size : int;
  fabric : body Fabric.t;
  host_states : host_state array;
  allocator : Allocator.t;
  (* manager bookkeeping (host 0) *)
  mutable interval : int;
  dirty_log : (int, (int * int) Queue.t) Hashtbl.t;  (* mp -> (interval, writer) *)
  synced : int array;
  barrier_counts : (int, int) Hashtbl.t;
  locks : (int, lock_state) Hashtbl.t;
  compositions : (int, int array) Hashtbl.t;
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
let name = "mrc"
let home_of _ ~addr:_ = 0
let hosts t = Array.length t.host_states
let engine t = t.engine
let home t mp_id = mp_id mod hosts t
let header t = t.cost.Lrc.Cost.header_bytes
let send t ~src ~dst ~bytes body = Fabric.send t.fabric ~src ~dst ~bytes body

let fresh_req t =
  t.next_req <- t.next_req + 1;
  t.next_req

let minipage t mp_id =
  match Mpt.find_by_id (Allocator.mpt t.allocator) mp_id with
  | Some mp -> mp
  | None -> failwith "mrc: unknown minipage"

let state_of (h : host_state) mp_id =
  Option.value ~default:Invalid (Hashtbl.find_opt h.mstate mp_id)

let protect_mp t (h : host_state) (mp : Minipage.t) prot =
  let n =
    Minipage.last_vpage mp ~page_size:t.page_size
    - Minipage.first_vpage mp ~page_size:t.page_size
    + 1
  in
  Engine.delay (t.cost.Lrc.Cost.set_prot_us *. float_of_int n);
  Vm.protect_range h.vm ~view:mp.Minipage.view ~phys_off:mp.Minipage.offset
    ~len:mp.Minipage.length prot

let mp_bytes _t (h : host_state) (mp : Minipage.t) =
  Vm.priv_read_bytes h.vm ~off:mp.Minipage.offset ~len:mp.Minipage.length

(* ------------------------------------------------------------------ *)
(* Manager bookkeeping                                                  *)
(* ------------------------------------------------------------------ *)

let dirty_log t mp_id =
  match Hashtbl.find_opt t.dirty_log mp_id with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.add t.dirty_log mp_id q;
    q

let manager_record_release t ~from mp_ids =
  t.interval <- t.interval + 1;
  List.iter (fun mp_id -> Queue.add (t.interval, from) (dirty_log t mp_id)) mp_ids

let invalidation_list t ~for_host =
  let since = t.synced.(for_host) in
  let out = ref [] in
  Hashtbl.iter
    (fun mp_id log ->
      let dirty_by_other = ref false in
      Queue.iter
        (fun (interval, writer) ->
          if interval > since && writer <> for_host then dirty_by_other := true)
        log;
      if !dirty_by_other then out := mp_id :: !out)
    t.dirty_log;
  t.synced.(for_host) <- t.interval;
  let min_synced = Array.fold_left min max_int t.synced in
  Hashtbl.iter
    (fun _ log ->
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
(* Host-side actions                                                    *)
(* ------------------------------------------------------------------ *)

let invalidate_minipages t (h : host_state) mp_ids =
  List.iter
    (fun mp_id ->
      match state_of h mp_id with
      | Clean ->
        Hashtbl.replace h.mstate mp_id Invalid;
        let mp = minipage t mp_id in
        Vm.protect_range h.vm ~view:mp.Minipage.view ~phys_off:mp.Minipage.offset
          ~len:mp.Minipage.length Prot.No_access
      | Invalid | Dirty _ -> ())
    mp_ids

let flush ctx =
  let t = ctx.t and h = ctx.hs in
  let dirtied = ref [] in
  let ev = Sync.Event.create ~auto_reset:false ~name:"mrc.flush" () in
  h.flush_pending <- 0;
  h.flush_event <- Some ev;
  Hashtbl.iter
    (fun mp_id state ->
      match state with
      | Dirty twin ->
        let mp = minipage t mp_id in
        (* the §5 payoff: diff cost scales with the minipage, not the page *)
        Engine.delay (Twin_diff.creation_cost_us ~page_bytes:mp.Minipage.length);
        let diff = Twin_diff.diff ~twin ~current:(mp_bytes t h mp) in
        Hashtbl.replace h.mstate mp_id Clean;
        protect_mp t h mp Prot.Read_only;
        if not (Twin_diff.is_empty diff) then begin
          dirtied := mp_id :: !dirtied;
          Stats.Counters.incr t.diffs;
          Stats.Counters.add t.diff_bytes (Twin_diff.encoded_bytes diff);
          let hm = home t mp_id in
          if hm <> h.id then begin
            h.flush_pending <- h.flush_pending + 1;
            send t ~src:h.id ~dst:hm
              ~bytes:(header t + Twin_diff.encoded_bytes diff)
              (Diff_msg { seq = fresh_req t; mp_id; diff; from = h.id })
          end
        end
      | Clean | Invalid -> ())
    (Hashtbl.copy h.mstate);
  while h.flush_pending > 0 do
    Sync.Event.reset ev;
    if h.flush_pending > 0 then Sync.Event.wait ev
  done;
  h.flush_event <- None;
  if !dirtied <> [] then
    send t ~src:h.id ~dst:manager ~bytes:(header t)
      (Rel_notice { from = h.id; mp_ids = !dirtied })

let fetch_minipage ctx mp_id =
  let t = ctx.t and h = ctx.hs in
  let hm = home t mp_id in
  if hm = h.id then begin
    Hashtbl.replace h.mstate mp_id Clean;
    protect_mp t h (minipage t mp_id) Prot.Read_only
  end
  else begin
    let w =
      match Hashtbl.find_opt h.fetching mp_id with
      | Some w -> w
      | None ->
        let w = { event = Sync.Event.create ~auto_reset:false ~name:"mrc.fetch" () } in
        Hashtbl.add h.fetching mp_id w;
        send t ~src:h.id ~dst:hm ~bytes:(header t)
          (Fetch { req_id = fresh_req t; mp_id; from = h.id });
        w
    in
    Sync.Event.wait w.event;
    Engine.delay t.cost.Lrc.Cost.wakeup_us
  end

let on_fault ctx (f : Vm.fault) =
  let t = ctx.t and h = ctx.hs in
  let t0 = Engine.now t.engine in
  let span = fresh_req t in
  let access = match f.access with Prot.Read -> Mp_obs.Event.Read | _ -> Mp_obs.Event.Write in
  Obs.fault_begin t.obs ~time:t0 ~host:h.id ~span ~access ~addr:f.addr ~view:f.view
    ~vpage:f.vpage;
  Engine.delay t.cost.Lrc.Cost.fault_us;
  let mp =
    let view, _vp, off = Vm.translate h.vm f.addr in
    match Mpt.find (Allocator.mpt t.allocator) off with
    | Some mp when mp.Minipage.view = view -> mp
    | Some _ -> failwith "mrc: access through the wrong view"
    | None -> failwith "mrc: wild access"
  in
  let mp_id = mp.Minipage.id in
  (match (f.access, state_of h mp_id) with
  | Prot.Read, Invalid -> fetch_minipage ctx mp_id
  | Prot.Write, Invalid -> fetch_minipage ctx mp_id (* retry twins via Clean *)
  | Prot.Write, Clean ->
    Engine.delay
      (t.cost.Lrc.Cost.twin_us *. float_of_int mp.Minipage.length /. 4096.0);
    Stats.Counters.incr t.twins;
    Hashtbl.replace h.mstate mp_id (Dirty (Twin_diff.twin (mp_bytes t h mp)));
    protect_mp t h mp Prot.Read_write
  | Prot.Read, (Clean | Dirty _) | Prot.Write, Dirty _ ->
    failwith "mrc: fault on an accessible minipage");
  let dt = Engine.now t.engine -. t0 in
  (match f.access with
  | Prot.Read -> h.bd.Breakdown.read_fault <- h.bd.Breakdown.read_fault +. dt
  | Prot.Write -> h.bd.Breakdown.write_fault <- h.bd.Breakdown.write_fault +. dt);
  Obs.fault_end t.obs ~time:(Engine.now t.engine) ~host:h.id ~span

(* ------------------------------------------------------------------ *)
(* Message dispatch                                                     *)
(* ------------------------------------------------------------------ *)

let on_message t (h : host_state) (m : body Fabric.msg) =
  let cost = t.cost in
  match m.Fabric.body with
  | Fetch { req_id; mp_id; from } ->
    Engine.delay cost.Lrc.Cost.dispatch_us;
    let mp = minipage t mp_id in
    let data = mp_bytes t h mp in
    send t ~src:h.id ~dst:from
      ~bytes:(header t + mp.Minipage.length)
      (Fetch_reply { req_id; mp_id; data })
  | Fetch_reply { req_id = _; mp_id; data } -> (
    let mp = minipage t mp_id in
    Engine.delay
      (cost.Lrc.Cost.dispatch_us
      +. (cost.Lrc.Cost.recv_dma_us_per_byte *. float_of_int mp.Minipage.length));
    (match state_of h mp_id with
    | Invalid ->
      Vm.priv_write_bytes h.vm ~off:mp.Minipage.offset data;
      Hashtbl.replace h.mstate mp_id Clean;
      protect_mp t h mp Prot.Read_only
    | Clean | Dirty _ -> ());
    match Hashtbl.find_opt h.fetching mp_id with
    | Some w ->
      Hashtbl.remove h.fetching mp_id;
      Sync.Event.set w.event
    | None -> ())
  | Diff_msg { seq; mp_id; diff; from } ->
    Engine.delay (cost.Lrc.Cost.dispatch_us +. Twin_diff.apply_cost_us diff);
    let mp = minipage t mp_id in
    let target = mp_bytes t h mp in
    (* diffs are minipage-relative? no: offsets are absolute within the
       minipage bytes, which is what Twin_diff produced *)
    Twin_diff.apply diff target;
    Vm.priv_write_bytes h.vm ~off:mp.Minipage.offset target;
    send t ~src:h.id ~dst:from ~bytes:(header t) (Diff_ack { seq })
  | Diff_ack _ ->
    Engine.delay cost.Lrc.Cost.sync_dispatch_us;
    h.flush_pending <- h.flush_pending - 1;
    if h.flush_pending = 0 then Option.iter Sync.Event.set h.flush_event
  | Rel_notice { from; mp_ids } ->
    Engine.delay cost.Lrc.Cost.sync_dispatch_us;
    manager_record_release t ~from mp_ids
  | B_enter { from = _; phase } ->
    Engine.delay cost.Lrc.Cost.sync_dispatch_us;
    let count = 1 + Option.value ~default:0 (Hashtbl.find_opt t.barrier_counts phase) in
    if count >= t.total_threads then begin
      Hashtbl.remove t.barrier_counts phase;
      for dst = 0 to hosts t - 1 do
        let invalidate = invalidation_list t ~for_host:dst in
        send t ~src:manager ~dst
          ~bytes:(header t + (4 * List.length invalidate))
          (B_release { phase; invalidate })
      done
    end
    else Hashtbl.replace t.barrier_counts phase count
  | B_release { phase; invalidate } ->
    Engine.delay cost.Lrc.Cost.sync_dispatch_us;
    invalidate_minipages t h invalidate;
    let ev =
      match Hashtbl.find_opt h.barrier_events phase with
      | Some ev -> ev
      | None ->
        let ev = Sync.Event.create ~auto_reset:false ~name:"mrc.barrier" () in
        Hashtbl.add h.barrier_events phase ev;
        ev
    in
    Sync.Event.set ev
  | L_acquire { from; lock } -> (
    Engine.delay cost.Lrc.Cost.sync_dispatch_us;
    let s =
      match Hashtbl.find_opt t.locks lock with
      | Some s -> s
      | None ->
        let s = { held = false; lock_queue = Queue.create () } in
        Hashtbl.add t.locks lock s;
        s
    in
    if s.held then Queue.add from s.lock_queue
    else begin
      s.held <- true;
      let invalidate = invalidation_list t ~for_host:from in
      send t ~src:manager ~dst:from
        ~bytes:(header t + (4 * List.length invalidate))
        (L_grant { lock; invalidate })
    end)
  | L_grant { lock; invalidate } -> (
    Engine.delay cost.Lrc.Cost.sync_dispatch_us;
    invalidate_minipages t h invalidate;
    match Hashtbl.find_opt h.lock_waiters lock with
    | Some q when not (Queue.is_empty q) -> Sync.Event.set (Queue.take q)
    | Some _ | None -> failwith "mrc: LOCK grant with no local waiter")
  | L_release { from = _; lock } -> (
    Engine.delay cost.Lrc.Cost.sync_dispatch_us;
    let s = Hashtbl.find t.locks lock in
    match Queue.take_opt s.lock_queue with
    | Some next ->
      let invalidate = invalidation_list t ~for_host:next in
      send t ~src:manager ~dst:next
        ~bytes:(header t + (4 * List.length invalidate))
        (L_grant { lock; invalidate })
    | None -> s.held <- false)

(* ------------------------------------------------------------------ *)
(* Construction / init                                                  *)
(* ------------------------------------------------------------------ *)

let create engine ~hosts:nhosts ?(views = 32) ?(object_size = 16 * 1024 * 1024)
    ?(page_size = 4096) ?(chunking = Allocator.Fine 1) ?(polling = Polling.nt_mode)
    ?(seed = 1) () =
  if nhosts <= 0 then invalid_arg "Mrc.create: hosts";
  let counters = Stats.Counters.create () in
  let fabric = Fabric.create engine ~hosts:nhosts ~counters ~polling ~seed () in
  let mk_host id =
    let obj = Memobject.create ~page_size ~size:object_size () in
    let vm = Vm.create ~counters obj in
    for _ = 1 to views do
      ignore (Vm.map_view vm Prot.No_access)
    done;
    ignore (Vm.map_privileged_view vm);
    {
      id;
      vm;
      mstate = Hashtbl.create 256;
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
      cost = Lrc.Cost.default;
      obs = Obs.create ();
      page_size;
      object_size;
      fabric;
      host_states = Array.init nhosts mk_host;
      allocator = Allocator.create ~chunking ~page_size ~object_size ~views ();
      interval = 0;
      dirty_log = Hashtbl.create 256;
      synced = Array.make nhosts 0;
      barrier_counts = Hashtbl.create 16;
      locks = Hashtbl.create 8;
      compositions = Hashtbl.create 8;
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

let malloc t size =
  if t.started then invalid_arg "Mrc.malloc: allocation only in the init phase";
  let mp, off = Allocator.malloc t.allocator size in
  (* the home starts with the only (clean) copy; re-protect the whole
     minipage so chunk extensions cover their new range too *)
  let hm = home t mp.Minipage.id in
  let h = t.host_states.(hm) in
  Hashtbl.replace h.mstate mp.Minipage.id Clean;
  Vm.protect_range h.vm ~view:mp.Minipage.view ~phys_off:mp.Minipage.offset
    ~len:mp.Minipage.length Prot.Read_only;
  Vm.address h.vm ~view:mp.Minipage.view off

let init_write t addr write =
  (* route the initial value to the minipage's home copy *)
  let vm0 = t.host_states.(0).vm in
  let _view, _vp, off = Vm.translate vm0 addr in
  let mp = Mpt.find_exn (Allocator.mpt t.allocator) off in
  let hm = home t mp.Minipage.id in
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

let init_write_u8 t addr v =
  init_write t addr (fun vm off ->
      Vm.priv_write_bytes vm ~off (Bytes.make 1 (Char.chr (v land 0xFF))))

let spawn t ~host ?name f =
  if host < 0 || host >= hosts t then invalid_arg "Mrc.spawn: bad host";
  t.total_threads <- t.total_threads + 1;
  let name = Option.value ~default:(Printf.sprintf "app.h%d" host) name in
  let ctx = { t; hs = t.host_states.(host); barrier_phase = 0 } in
  Engine.spawn t.engine ~name (fun () ->
      f ctx;
      t.finished_threads <- t.finished_threads + 1)

let run t =
  t.started <- true;
  Engine.run t.engine;
  if t.finished_threads < t.total_threads then
    failwith
      (Printf.sprintf "mrc: %d/%d application threads did not finish"
         (t.total_threads - t.finished_threads)
         t.total_threads)

(* ------------------------------------------------------------------ *)
(* Thread operations                                                    *)
(* ------------------------------------------------------------------ *)

let host ctx = ctx.hs.id

let with_handler ctx f =
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
  if us < 0.0 then invalid_arg "Mrc.compute: negative time";
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
      let ev = Sync.Event.create ~auto_reset:false ~name:"mrc.barrier" () in
      Hashtbl.add h.barrier_events phase ev;
      ev
  in
  Obs.barrier_enter t.obs ~time:(Engine.now t.engine) ~host:h.id ~bphase:phase;
  send t ~src:h.id ~dst:manager ~bytes:(header t) (B_enter { from = h.id; phase });
  Sync.Event.wait ev;
  Engine.delay t.cost.Lrc.Cost.wakeup_us;
  Obs.barrier_exit t.obs ~time:(Engine.now t.engine) ~host:h.id ~bphase:phase
    ~waited_us:(Engine.now t.engine -. t0);
  charge_synch h (Engine.now t.engine -. t0)

let lock ctx l =
  let t = ctx.t and h = ctx.hs in
  let ev = Sync.Event.create ~name:"mrc.lock" () in
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
  send t ~src:h.id ~dst:manager ~bytes:(header t) (L_acquire { from = h.id; lock = l });
  Sync.Event.wait ev;
  Engine.delay t.cost.Lrc.Cost.wakeup_us;
  Obs.lock_grant t.obs ~time:(Engine.now t.engine) ~host:h.id ~lock:l
    ~waited_us:(Engine.now t.engine -. t0);
  charge_synch h (Engine.now t.engine -. t0)

let unlock ctx l =
  let t = ctx.t and h = ctx.hs in
  let t0 = Engine.now t.engine in
  flush ctx;
  Obs.lock_release t.obs ~time:(Engine.now t.engine) ~host:h.id ~lock:l;
  send t ~src:h.id ~dst:manager ~bytes:(header t) (L_release { from = h.id; lock = l });
  charge_synch h (Engine.now t.engine -. t0)

let prefetch ctx addr _access =
  let t = ctx.t and h = ctx.hs in
  let _view, _vp, off = Vm.translate h.vm addr in
  match Mpt.find (Allocator.mpt t.allocator) off with
  | None -> ()
  | Some mp ->
    let mp_id = mp.Minipage.id in
    if state_of h mp_id = Invalid && home t mp_id <> h.id
       && not (Hashtbl.mem h.fetching mp_id)
    then begin
      Hashtbl.add h.fetching mp_id
        { event = Sync.Event.create ~auto_reset:false ~name:"mrc.fetch" () };
      send t ~src:h.id ~dst:(home t mp_id) ~bytes:(header t)
        (Fetch { req_id = fresh_req t; mp_id; from = h.id })
    end

let push_to_all ctx _addr =
  let t0 = Engine.now ctx.t.engine in
  flush ctx;
  charge_synch ctx.hs (Engine.now ctx.t.engine -. t0)

let compose t addrs =
  let id = fresh_req t in
  Hashtbl.add t.compositions id (Array.copy addrs);
  id

let fetch_group ctx group_id =
  let t = ctx.t in
  match Hashtbl.find_opt t.compositions group_id with
  | None -> invalid_arg "Mrc.fetch_group: unknown composed view"
  | Some addrs ->
    Array.iter (fun addr -> prefetch ctx addr Prot.Read) addrs;
    Array.iter (fun addr -> ignore (read_u8 ctx addr)) addrs

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
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
let views_used t = Allocator.views_used t.allocator

(* every minipage is served by the twin/diff multi-writer protocol, always *)
let mode_of _ _ = Mp_millipage.Proto.Rc

let modes t =
  [ (Mp_millipage.Proto.Sc, 0);
    (Mp_millipage.Proto.Rc, Mpt.count (Allocator.mpt t.allocator)) ]

type sched_event = Block of { proc : string; on : string } | Resume of { proc : string }

type proc_state = {
  mutable cancelled : bool;
  mutable finished : bool;
  (* Kill thunk for the at-most-one live suspension of this process: a fiber
     is suspended at no more than one point at a time, so a single slot
     suffices.  Cleared when the suspension resumes. *)
  mutable kill_suspended : (unit -> unit) option;
}

type ev = { run : unit -> unit; label : string }

type chooser = {
  choose : time:float -> labels:string array -> int;
  perturb_latency : label:string -> now:float -> float;
}

type t = {
  mutable now : float;
  queue : ev Pqueue.t;
  mutable seq : int;
  mutable live : int;
  blocked_tbl : (int, string * string) Hashtbl.t;
  mutable susp_id : int;
  mutable observer : (time:float -> sched_event -> unit) option;
  mutable chooser : chooser option;
  groups : (int, proc_state list ref) Hashtbl.t;
}

exception Not_in_process
exception Killed

type _ Effect.t +=
  | Delay : (t * float) -> unit Effect.t
  | Suspend : (t * string * ((unit -> unit) -> unit)) -> unit Effect.t

let create () =
  {
    now = 0.0;
    queue = Pqueue.create ();
    seq = 0;
    live = 0;
    blocked_tbl = Hashtbl.create 32;
    susp_id = 0;
    observer = None;
    chooser = None;
    groups = Hashtbl.create 8;
  }

let now t = t.now

let set_observer t obs = t.observer <- obs

let notify t ev = match t.observer with Some f -> f ~time:t.now ev | None -> ()

let set_chooser t c = t.chooser <- c
let chooser_active t = t.chooser <> None

let perturb_latency t ~label =
  match t.chooser with
  | None -> 0.0
  | Some c -> Float.max 0.0 (c.perturb_latency ~label ~now:t.now)

let schedule_raw t ~at ?(label = "cb") thunk =
  let at = if at < t.now then t.now else at in
  t.seq <- t.seq + 1;
  Pqueue.push t.queue ~time:at ~seq:t.seq { run = thunk; label }

let schedule t ~at ?label thunk = schedule_raw t ~at ?label thunk

let spawn t ?(name = "proc") ?group f =
  t.live <- t.live + 1;
  let st = { cancelled = false; finished = false; kill_suspended = None } in
  (match group with
  | None -> ()
  | Some g ->
    let l =
      match Hashtbl.find_opt t.groups g with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.add t.groups g l;
        l
    in
    l := st :: !l);
  let finish () =
    st.finished <- true;
    st.kill_suspended <- None;
    t.live <- t.live - 1
  in
  let handler =
    {
      Effect.Deep.retc = (fun () -> finish ());
      exnc =
        (function
        | Killed -> finish ()
        | e ->
          (* a crashing process is still an exit: keep [live] balanced *)
          finish ();
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay (t, d) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let d = if d < 0.0 then 0.0 else d in
                schedule_raw t ~at:(t.now +. d) ~label:("delay:" ^ name)
                  (fun () ->
                    if st.cancelled then Effect.Deep.discontinue k Killed
                    else Effect.Deep.continue k ()))
          | Suspend (t, label, register) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                t.susp_id <- t.susp_id + 1;
                let id = t.susp_id in
                Hashtbl.replace t.blocked_tbl id (name, label);
                notify t (Block { proc = name; on = label });
                let resumed = ref false in
                let cleanup () =
                  resumed := true;
                  st.kill_suspended <- None;
                  Hashtbl.remove t.blocked_tbl id
                in
                let resume () =
                  if not !resumed then begin
                    cleanup ();
                    notify t (Resume { proc = name });
                    if st.cancelled then Effect.Deep.discontinue k Killed
                    else
                      schedule_raw t ~at:t.now ~label:("resume:" ^ name)
                        (fun () -> Effect.Deep.continue k ())
                  end
                in
                st.kill_suspended <-
                  Some
                    (fun () ->
                      if not !resumed then begin
                        cleanup ();
                        Effect.Deep.discontinue k Killed
                      end);
                register resume)
          | _ -> None);
    }
  in
  schedule_raw t ~at:t.now ~label:("start:" ^ name) (fun () ->
      if st.cancelled then finish () else Effect.Deep.match_with f () handler)

(* The engine of the innermost handler is the one stored in the effect
   payload; processes capture it at spawn time via these helpers.  A process
   discovers its engine with a dedicated effect would be circular, so instead
   we thread the engine through a domain-local "current engine" set around
   each event execution.  Domain-local storage (not a plain ref) so that
   several domains — the parallel mpcheck explorer runs one engine per
   worker — never observe each other's current engine. *)
let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_current t thunk =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current saved) thunk

let the_engine () =
  match Domain.DLS.get current with Some t -> t | None -> raise Not_in_process

let delay d =
  let t = the_engine () in
  try Effect.perform (Delay (t, d)) with Effect.Unhandled _ -> raise Not_in_process


let suspend ~name register =
  let t = the_engine () in
  try Effect.perform (Suspend (t, name, register))
  with Effect.Unhandled _ -> raise Not_in_process

let run_ev t time (e : ev) =
  t.now <- time;
  with_current t e.run

let step t =
  match t.chooser with
  | None -> (
    match Pqueue.pop t.queue with
    | None -> false
    | Some (time, e) ->
      run_ev t time e;
      true)
  | Some c -> (
    (* Exploration path: pop the whole same-instant group, let the chooser
       pick one, and push the rest back with their seqs intact — so a chooser
       that always answers 0 reproduces the deterministic order exactly, and
       a group of n events yields n-1 successive choice points. *)
    match Pqueue.pop_min_group t.queue with
    | None -> false
    | Some (time, [ (_, e) ]) ->
      run_ev t time e;
      true
    | Some (time, group) ->
      let group = Array.of_list group in
      let labels = Array.map (fun (_, e) -> e.label) group in
      let pick = c.choose ~time ~labels in
      let pick = if pick < 0 || pick >= Array.length group then 0 else pick in
      Array.iteri
        (fun i (seq, e) ->
          if i <> pick then Pqueue.push t.queue ~time ~seq e)
        group;
      let _, e = group.(pick) in
      run_ev t time e;
      true)

let run t = while step t do () done

let live t = t.live
let blocked t = Hashtbl.fold (fun _ v acc -> v :: acc) t.blocked_tbl []

let kill_group t g =
  match Hashtbl.find_opt t.groups g with
  | None -> 0
  | Some l ->
    let killed = ref 0 in
    List.iter
      (fun st ->
        if not (st.finished || st.cancelled) then begin
          st.cancelled <- true;
          incr killed;
          (* Suspended processes unwind immediately; processes waiting on a
             Delay unwind when their timer fires (sim time still advances
             past the crash, but no further user code runs). *)
          match st.kill_suspended with
          | Some kill -> kill ()
          | None -> ()
        end)
      !l;
    !killed

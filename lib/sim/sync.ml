module Event = struct
  type t = {
    name : string;
    auto_reset : bool;
    mutable signaled : bool;
    waiters : (unit -> unit) Queue.t;
  }

  let create ?(auto_reset = true) ?(name = "event") () =
    { name; auto_reset; signaled = false; waiters = Queue.create () }

  let wait t =
    if t.signaled then begin
      if t.auto_reset then t.signaled <- false
    end
    else Engine.suspend ~name:t.name (fun resume -> Queue.add resume t.waiters)

  let set t =
    if t.auto_reset then begin
      match Queue.take_opt t.waiters with
      | Some resume -> resume ()
      | None -> t.signaled <- true
    end
    else begin
      t.signaled <- true;
      let rec drain () =
        match Queue.take_opt t.waiters with
        | Some resume ->
          resume ();
          drain ()
        | None -> ()
      in
      drain ()
    end

  let reset t = t.signaled <- false
end

module Mutex = struct
  type t = { name : string; mutable held : bool; waiters : (unit -> unit) Queue.t }

  let create ?(name = "mutex") () = { name; held = false; waiters = Queue.create () }

  let lock t =
    if not t.held then t.held <- true
    else Engine.suspend ~name:t.name (fun resume -> Queue.add resume t.waiters)

  let unlock t =
    if not t.held then invalid_arg "Sync.Mutex.unlock: not locked";
    match Queue.take_opt t.waiters with
    | Some resume -> resume () (* ownership transfers directly to the waiter *)
    | None -> t.held <- false
end

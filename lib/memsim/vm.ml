open Mp_util

(* Protections are one byte per vpage (see [code]).  Views mapped with the
   same initial protection share one array until a [protect] first changes an
   entry of theirs, which copies it. *)
type view = { base : int; mutable prot : bytes; mutable shared : bool; fixed : bool }

type t = {
  obj : Memobject.t;
  mutable views : view array;
  page_size : int;
  vpages : int;
  stride : int;  (* distance between consecutive view bases *)
  first_base : int;
  mutable handler : (fault -> unit) option;
  mutable shared_prots : (Prot.t * bytes) list;  (* by initial protection *)
  read_faults : Stats.Counters.counter;
  write_faults : Stats.Counters.counter;
}

and fault = { addr : int; access : Prot.access; view : int; vpage : int; phys_off : int }

exception Access_violation of fault
exception Fault_storm of fault
exception Bad_address of int

let max_fault_retries = 64

(* A vpage's protection byte is [code p]; access [a] is allowed when the byte
   is at least [need a]. *)
let code = function Prot.No_access -> '\000' | Read_only -> '\001' | Read_write -> '\002'
let decode = function '\000' -> Prot.No_access | '\001' -> Read_only | _ -> Read_write
let need = function Prot.Read -> 1 | Write -> 2

let create ~counters obj =
  let page_size = Memobject.page_size obj in
  let size = Memobject.size obj in
  (* One guard page between views catches stray pointer arithmetic. *)
  {
    obj;
    views = [||];
    page_size;
    vpages = Memobject.pages obj;
    stride = size + page_size;
    first_base = page_size;
    handler = None;
    shared_prots = [];
    read_faults = Stats.Counters.counter counters "fault.read";
    write_faults = Stats.Counters.counter counters "fault.write";
  }

let map_view ?(fixed = false) t initial =
  let index = Array.length t.views in
  let base = t.first_base + (index * t.stride) in
  let prot =
    match List.assoc_opt initial t.shared_prots with
    | Some prot -> prot
    | None ->
      let prot = Bytes.make t.vpages (code initial) in
      t.shared_prots <- (initial, prot) :: t.shared_prots;
      prot
  in
  let view = { base; prot; shared = true; fixed } in
  t.views <- Array.append t.views [| view |];
  index

let map_privileged_view t = map_view ~fixed:true t Prot.Read_write

let view t i =
  if i < 0 || i >= Array.length t.views then invalid_arg "Vm: no such view";
  t.views.(i)

let view_base t i = (view t i).base

let address t ~view:i off =
  if off < 0 || off >= Memobject.size t.obj then invalid_arg "Vm.address: offset out of range";
  (view t i).base + off

(* [addr]'s distance from the first view's base: view [rel / stride] at
   physical offset [rel mod stride].  Raises [Bad_address] outside every view. *)
let locate t addr =
  let rel = addr - t.first_base in
  if rel < 0 || rel / t.stride >= Array.length t.views || rel mod t.stride >= Memobject.size t.obj
  then raise (Bad_address addr);
  rel

let translate t addr =
  let rel = locate t addr in
  let off = rel mod t.stride in
  (rel / t.stride, off / t.page_size, off)

let protect t ~view:i ~vpage prot =
  let v = view t i in
  if v.fixed then invalid_arg "Vm.protect: view protection is fixed";
  if vpage < 0 || vpage >= t.vpages then invalid_arg "Vm.protect: bad vpage";
  let c = code prot in
  if Bytes.get v.prot vpage <> c then begin
    if v.shared then begin
      v.prot <- Bytes.copy v.prot;
      v.shared <- false
    end;
    Bytes.set v.prot vpage c
  end

let protect_range t ~view:i ~phys_off ~len prot =
  if len <= 0 then invalid_arg "Vm.protect_range: non-positive length";
  let first = phys_off / t.page_size in
  let last = (phys_off + len - 1) / t.page_size in
  for vpage = first to last do
    protect t ~view:i ~vpage prot
  done

let protection t ~view:i ~vpage =
  if vpage < 0 || vpage >= t.vpages then invalid_arg "Vm.protection: bad vpage";
  decode (Bytes.get (view t i).prot vpage)

let set_fault_handler t handler = t.handler <- Some handler

(* The first vpage in [first, last] whose protection byte is below [need],
   or -1. *)
let rec first_fault prot vp last need =
  if vp > last then -1
  else if Char.code (Bytes.get prot vp) < need then vp
  else first_fault prot (vp + 1) last need

(* While some vpage in [first, last] denies the access, call the handler and
   retry, as the hardware would re-execute the faulting instruction. *)
let rec fault_and_retry t ~addr ~access ~idx (v : view) ~first ~last ~need n =
  let vp = first_fault v.prot first last need in
  if vp >= 0 then begin
    let fault = { addr; access; view = idx; vpage = vp; phys_off = vp * t.page_size } in
    Stats.Counters.incr
      (match access with Prot.Read -> t.read_faults | Prot.Write -> t.write_faults);
    (match t.handler with
    | None -> raise (Access_violation fault)
    | Some h ->
      if n >= max_fault_retries then raise (Fault_storm fault);
      h fault);
    fault_and_retry t ~addr ~access ~idx v ~first ~last ~need (n + 1)
  end

(* Check that every vpage covered by [addr, addr+len) allows [access] and
   return the physical offset.  An access that does not fault allocates
   nothing. *)
let ensure_access t addr len access =
  let rel = locate t addr in
  let idx = rel / t.stride and phys_off = rel mod t.stride in
  let v = Array.unsafe_get t.views idx in
  let first = phys_off / t.page_size in
  let last = (phys_off + len - 1) / t.page_size in
  if last >= t.vpages then raise (Bad_address (addr + len - 1));
  fault_and_retry t ~addr ~access ~idx v ~first ~last ~need:(need access) 0;
  phys_off

let mem t = Memobject.mem t.obj

let read_access t addr len = ensure_access t addr len Prot.Read
let write_access t addr len = ensure_access t addr len Prot.Write

let read_u8 t addr = Phys_mem.get_u8 (mem t) (read_access t addr 1)
let write_u8 t addr v = Phys_mem.set_u8 (mem t) (write_access t addr 1) v
let read_i32 t addr = Phys_mem.get_i32 (mem t) (read_access t addr 4)
let write_i32 t addr v = Phys_mem.set_i32 (mem t) (write_access t addr 4) v
let read_f64 t addr = Phys_mem.get_f64 (mem t) (read_access t addr 8)
let write_f64 t addr v = Phys_mem.set_f64 (mem t) (write_access t addr 8) v
let read_int t addr = Phys_mem.get_int (mem t) (read_access t addr 8)
let write_int t addr v = Phys_mem.set_int (mem t) (write_access t addr 8) v

let priv_read_bytes t ~off ~len = Phys_mem.read_bytes (mem t) ~off ~len
let priv_write_bytes t ~off b = Phys_mem.write_bytes (mem t) ~off b

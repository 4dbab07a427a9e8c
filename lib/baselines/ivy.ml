open Mp_millipage

type t = Dsm.t
type ctx = Dsm.ctx

let create engine ~hosts ?(object_size = 16 * 1024 * 1024)
    ?(polling = Mp_net.Polling.nt_mode) ?(seed = 1) () =
  let config =
    {
      Dsm.Config.default with
      views = 1;
      chunking = Mp_multiview.Allocator.Page_grain;
      object_size;
      polling;
      seed;
    }
  in
  Dsm.create engine ~hosts ~config ()

let name = "ivy"
let hosts = Dsm.hosts
let malloc = Dsm.malloc
let init_write_f64 = Dsm.init_write_f64
let init_write_int = Dsm.init_write_int
let init_write_i32 = Dsm.init_write_i32
let init_write_f32 = Dsm.init_write_f32
let spawn = Dsm.spawn
let run = Dsm.run
let host = Dsm.host
let read_f64 = Dsm.read_f64
let write_f64 = Dsm.write_f64
let read_int = Dsm.read_int
let write_int = Dsm.write_int
let read_i32 = Dsm.read_i32
let write_i32 = Dsm.write_i32
let read_f32 = Dsm.read_f32
let write_f32 = Dsm.write_f32
let read_u8 = Dsm.read_u8
let write_u8 = Dsm.write_u8
let compute = Dsm.compute
let barrier = Dsm.barrier
let lock = Dsm.lock
let unlock = Dsm.unlock

let prefetch ctx addr access =
  Dsm.prefetch ctx addr
    (match access with
    | Mp_memsim.Prot.Read -> Proto.Read
    | Mp_memsim.Prot.Write -> Proto.Write)

let push_to_all = Dsm.push_to_all
let compose = Dsm.compose
let fetch_group = Dsm.fetch_group
let messages_sent = Dsm.messages_sent
let bytes_sent = Dsm.bytes_sent
let read_faults = Dsm.read_faults
let write_faults = Dsm.write_faults
let breakdown t = Breakdown.to_list (Dsm.breakdown_total t)
let obs = Dsm.obs
let profile t = Mp_obs.Profile.attached (Dsm.obs t)

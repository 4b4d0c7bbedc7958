(* [Make (V)] is [V] with every user-visible operation timed through a
   {!Probe} (layer "core"): it satisfies [Vm_intf.S], so it slots into
   any workload functor, and it changes nothing the simulation computes. *)

let kinds = [ "read"; "touch"; "mmap"; "munmap"; "mprotect" ]
let k_read = 0
let k_touch = 1
let k_mmap = 2
let k_munmap = 3
let k_mprotect = 4

module Make (V : Vm.Vm_intf.S) : sig
  include Vm.Vm_intf.S

  val wrap : Probe.t -> V.t -> t
  val inner : t -> V.t
  val probe : t -> Probe.t

  val unmap_pending : t -> int option
  (** The first page of the latest [munmap], when no [mmap] followed it:
      a region a caller tore down and had not yet re-established. *)
end = struct
  type t = {
    vm : V.t;
    probe : Probe.t;
    mutable unmapped : int;  (* first page of the latest munmap *)
    mutable unmap_pending : bool;
  }

  let name = V.name
  let wrap probe vm = { vm; probe; unmapped = 0; unmap_pending = false }
  let create m = wrap (Probe.create ~layer:"core" kinds) (V.create m)
  let inner t = t.vm
  let probe t = t.probe
  let machine t = V.machine t.vm
  let unmap_pending t = if t.unmap_pending then Some t.unmapped else None

  let mmap t core ~vpn ~npages ?prot ?backing () =
    let s0 = Probe.start t.probe core in
    V.mmap t.vm core ~vpn ~npages ?prot ?backing ();
    Probe.stop t.probe k_mmap core s0;
    t.unmap_pending <- false

  let munmap t core ~vpn ~npages =
    let s0 = Probe.start t.probe core in
    V.munmap t.vm core ~vpn ~npages;
    Probe.stop t.probe k_munmap core s0;
    t.unmapped <- vpn;
    t.unmap_pending <- true

  let access k f t core ~vpn =
    let s0 = Probe.start t.probe core in
    let r = f t.vm core ~vpn in
    Probe.stop
      ~error:(match r with Vm.Vm_types.Ok -> false | _ -> true)
      t.probe k core s0;
    r

  let touch t core ~vpn = access k_touch V.touch t core ~vpn
  let read t core ~vpn = access k_read V.read t core ~vpn

  let mprotect t core ~vpn ~npages prot =
    let s0 = Probe.start t.probe core in
    V.mprotect t.vm core ~vpn ~npages prot;
    Probe.stop t.probe k_mprotect core s0

  let mapped t ~vpn = V.mapped t.vm ~vpn
  let index_bytes t = V.index_bytes t.vm
  let pt_bytes t = V.pt_bytes t.vm
end

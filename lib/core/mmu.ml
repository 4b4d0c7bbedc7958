open Ccsim

(* Per-core TLBs are filled on demand, like the page tables (section 3.3):
   [tlbs] holds the shared stand-in [no_tlb] (capacity 1, unobserved,
   never written) until a core's first fill, so lookups on it miss and
   drops skip it. An empty TLB emits nothing, so building it late leaves
   the [Obs] stream unchanged. *)
type t = {
  asid : int;  (* tags this address space's TLB events *)
  pt : Page_table.t;
  obs : Obs.t;
  tlb_entries : int;
  tlbs : Tlb.t array;
  no_tlb : Tlb.t;
}

let create machine kind =
  let asid = Obs.fresh_asid () in
  let no_tlb = Tlb.create ~capacity:1 () in
  {
    asid;
    pt = Page_table.create machine kind;
    obs = Machine.obs machine;
    tlb_entries = (Machine.params machine).Params.tlb_entries;
    tlbs = Array.make (Machine.ncores machine) no_tlb;
    no_tlb;
  }

(* Core [id]'s TLB, built at its first fill. *)
let filled_tlb t id =
  let tlb = t.tlbs.(id) in
  if tlb != t.no_tlb then tlb
  else begin
    let tlb =
      Tlb.create ~obs:t.obs ~core:id ~asid:t.asid ~capacity:t.tlb_entries ()
    in
    t.tlbs.(id) <- tlb;
    tlb
  end

let asid t = t.asid
let kind t = Page_table.kind t.pt
let page_table t = t.pt

let translate t (core : Core.t) ~vpn ~write =
  let stats = core.Core.stats and params = core.Core.params in
  let packed = Tlb.lookup_packed t.tlbs.(core.Core.id) vpn in
  if packed >= 0 then begin
    stats.Stats.tlb_hits <- stats.Stats.tlb_hits + 1;
    Core.tick core params.Params.tlb_hit;
    if write && packed land 1 = 0 then -1 else packed lsr 1
  end
  else begin
    stats.Stats.tlb_misses <- stats.Stats.tlb_misses + 1;
    Core.tick core params.Params.hw_walk_base;
    let packed = Page_table.find_packed t.pt core ~vpn in
    if packed < 0 then -1
    else begin
      stats.Stats.hw_walks <- stats.Stats.hw_walks + 1;
      let pfn = packed lsr 1 and writable = packed land 1 = 1 in
      Tlb.insert (filled_tlb t core.Core.id) ~vpn ~pfn ~writable;
      if write && not writable then -1 else pfn
    end
  end

let install t (core : Core.t) ~vpn ~pfn ~writable =
  Page_table.install t.pt core ~vpn ~pfn ~writable;
  Tlb.insert (filled_tlb t core.Core.id) ~vpn ~pfn ~writable

let drop_tlb_range t ~owner ~lo ~hi =
  let tlb = t.tlbs.(owner) in
  if tlb != t.no_tlb then Tlb.invalidate_range tlb ~lo ~hi

let drop_for_core t ~owner ~lo ~hi =
  Page_table.drop_range t.pt ~owner ~lo ~hi;
  drop_tlb_range t ~owner ~lo ~hi

let discard_for_core t ~owner =
  Page_table.drop_range t.pt ~owner ~lo:0 ~hi:max_int;
  let tlb = t.tlbs.(owner) in
  if tlb != t.no_tlb then Tlb.flush tlb

let tlb_mem t ~core ~vpn = Tlb.mem t.tlbs.(core) vpn

let pt_entry t ~core ~vpn = Page_table.peek t.pt ~owner:core ~vpn

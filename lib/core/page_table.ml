open Ccsim

type kind = Per_core | Shared | Grouped of int

type pte = { pfn : int; writable : bool }

(* A table per "domain": one per core, one per group of cores, or one for
   the whole machine. PTEs are packed eight per cache line within a
   domain, so walks and installs by different cores of the same domain
   contend realistically; a per-core domain's lines are only ever touched
   by their core and stay in its cache.

   Both maps are open-addressed int tables ({!Ccsim.Int_table}): a PTE
   packs as [pfn lsl 1 lor writable] (absent = [-1]), so the walk that
   every simulated memory access performs neither hashes nor allocates.

   Tables are filled on demand (section 3.3), so a domain's map is built
   at its first install: until then [maps] holds the shared, never-written
   [empty] stand-in, which every walk misses. A process that runs on one
   core of a big machine pays for one map, not one per core. *)
type t = {
  kind : kind;
  machine : Machine.t;
  maps : int Int_table.t array;  (* per domain: vpn -> packed pte *)
  empty : int Int_table.t;
  lines : Line.t Int_table.t;  (* (domain, vpn group) -> line *)
  dummy_line : Line.t;
}

let domains_of machine = function
  | Per_core -> Machine.ncores machine
  | Shared -> 1
  | Grouped g ->
      if g <= 0 then invalid_arg "Page_table: group size";
      (Machine.ncores machine + g - 1) / g

let create machine kind =
  let params = Machine.params machine in
  let dummy_line =
    Line.create ~label:"pt:none" params (Machine.stats machine) ~home_socket:0
  in
  let empty = Int_table.create ~size_hint:1 (-1) in
  {
    kind;
    machine;
    maps = Array.make (domains_of machine kind) empty;
    empty;
    lines = Int_table.create ~size_hint:1024 dummy_line;
    dummy_line;
  }

let kind t = t.kind

let domain_of t core_id =
  match t.kind with
  | Per_core -> core_id
  | Shared -> 0
  | Grouped g -> core_id / g

let line_for t ~domain ~vpn =
  let key = (domain lsl 40) lor (vpn / 8) in
  let line = Int_table.find_default t.lines key t.dummy_line in
  if line != t.dummy_line then line
  else begin
    let params = Machine.params t.machine in
    let nsockets =
      max 1 (params.Params.ncores / params.Params.cores_per_socket)
    in
    let label =
      match t.kind with
      | Per_core -> "pt:percore"
      | Shared -> "pt:shared"
      | Grouped _ -> "pt:grouped"
    in
    let line =
      Line.create ~label params (Machine.stats t.machine)
        ~home_socket:(key mod nsockets)
    in
    Int_table.set t.lines key line;
    line
  end

let find t (core : Core.t) ~vpn =
  let domain = domain_of t core.Core.id in
  Line.read core (line_for t ~domain ~vpn);
  let packed = Int_table.find_default t.maps.(domain) vpn (-1) in
  if packed < 0 then None
  else Some { pfn = packed lsr 1; writable = packed land 1 = 1 }

(* Allocation-free variant of [find]: [-1] when absent, else
   [pfn lsl 1 lor writable]. *)
let find_packed t (core : Core.t) ~vpn =
  let domain = domain_of t core.Core.id in
  Line.read core (line_for t ~domain ~vpn);
  Int_table.find_default t.maps.(domain) vpn (-1)

(* Domain [domain]'s map, built at its first install. *)
let filled_map t domain =
  let map = t.maps.(domain) in
  if map != t.empty then map
  else begin
    let map = Int_table.create ~size_hint:256 (-1) in
    t.maps.(domain) <- map;
    map
  end

let install t (core : Core.t) ~vpn ~pfn ~writable =
  let domain = domain_of t core.Core.id in
  Line.write core (line_for t ~domain ~vpn);
  Int_table.set (filled_map t domain) vpn
    ((pfn lsl 1) lor if writable then 1 else 0)

(* Probe per vpn for narrow ranges (the common munmap of a few pages); a
   narrow probe loop beats walking the whole slot array even when the
   table holds fewer entries than the range. *)
let narrow map ~lo ~hi = hi - lo <= 64 || hi - lo < Int_table.length map

let clear_range t ~owner ~lo ~hi =
  let map = t.maps.(domain_of t owner) in
  if narrow map ~lo ~hi then begin
    let removed = ref [] in
    for vpn = hi - 1 downto lo do
      let packed = Int_table.find_default map vpn (-1) in
      if packed >= 0 then begin
        Int_table.remove map vpn;
        removed := (vpn, packed lsr 1) :: !removed
      end
    done;
    !removed
  end
  else begin
    let removed =
      Int_table.fold
        (fun vpn packed acc ->
          if vpn >= lo && vpn < hi then (vpn, packed lsr 1) :: acc else acc)
        map []
    in
    Int_table.remove_range map ~lo ~hi;
    List.rev removed
  end

(* Allocation-free in both branches: exit and fork drop [0, max_vpn) on
   every target core. *)
let drop_range t ~owner ~lo ~hi =
  let map = t.maps.(domain_of t owner) in
  if map != t.empty then
    if narrow map ~lo ~hi then
      for vpn = lo to hi - 1 do
        Int_table.remove map vpn
      done
    else Int_table.remove_range map ~lo ~hi

let entries t =
  Array.fold_left (fun acc map -> acc + Int_table.length map) 0 t.maps

let pt_pages t =
  Array.fold_left
    (fun acc map ->
      if map == t.empty then acc
      else begin
        let leaves = Int_table.create ~size_hint:64 false in
        Int_table.iter
          (fun vpn _ ->
            Int_table.set leaves (vpn / Vm_types.ptes_per_page) true)
          map;
        acc + Int_table.length leaves
      end)
    0 t.maps

let bytes t = pt_pages t * Vm_types.page_size

let peek t ~owner ~vpn =
  let packed = Int_table.find_default t.maps.(domain_of t owner) vpn (-1) in
  if packed < 0 then None
  else Some { pfn = packed lsr 1; writable = packed land 1 = 1 }

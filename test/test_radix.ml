(* Tests for the compressed radix tree: folding, expansion, range locking,
   Refcache-tracked node liveness and collapsing, plus a model-based
   property test against a hash-table oracle. *)

open Ccsim
module Refcache = Refcnt.Refcache

let epoch = 10_000

let setup ?(ncores = 4) ?(bits = 4) ?(levels = 3) ?(collapse = false) () =
  let m = Machine.create (Params.default ~ncores ~epoch_cycles:epoch ()) in
  let rc = Refcache.create m in
  let core0 = Machine.core m 0 in
  let tree = Radix.create ~bits ~levels ~collapse m rc core0 in
  (m, rc, tree)

let drain_epochs m n = Machine.drain m ~cycles:(n * epoch)

(* VM-style mmap: lock, clear what's there, fill. *)
let mmap tree core ~lo ~hi v =
  let lk = Radix.lock_range tree core ~lo ~hi in
  ignore (Radix.clear_range tree core lk);
  Radix.fill_range tree core lk v;
  Radix.unlock_range tree core lk

let munmap tree core ~lo ~hi =
  let lk = Radix.lock_range tree core ~lo ~hi in
  let removed = Radix.clear_range tree core lk in
  Radix.unlock_range tree core lk;
  removed

(* ------------------------------------------------------------------ *)

let test_fill_lookup_clear () =
  let m, _rc, tree = setup () in
  let c = Machine.core m 0 in
  mmap tree c ~lo:10 ~hi:20 "a";
  Alcotest.(check (option string)) "mapped" (Some "a") (Radix.lookup tree c 15);
  Alcotest.(check (option string)) "below" None (Radix.lookup tree c 9);
  Alcotest.(check (option string)) "above" None (Radix.lookup tree c 20);
  let removed = munmap tree c ~lo:10 ~hi:20 in
  Alcotest.(check int)
    "all ten pages returned" 10
    (List.fold_left (fun acc (_, n, _) -> acc + n) 0 removed);
  Alcotest.(check (option string)) "unmapped" None (Radix.lookup tree c 15);
  Radix.check_invariants tree

let test_folding_keeps_tree_small () =
  let m, _rc, tree = setup () in
  let c = Machine.core m 0 in
  let nodes0 = Radix.node_count tree in
  (* 16^2 = 256 pages: exactly one level-2 slot's span. *)
  mmap tree c ~lo:0 ~hi:256 "big";
  Alcotest.(check int) "fold allocated no nodes" nodes0 (Radix.node_count tree);
  Alcotest.(check (option string)) "first" (Some "big") (Radix.lookup tree c 0);
  Alcotest.(check (option string)) "last" (Some "big") (Radix.lookup tree c 255);
  Radix.check_invariants tree

let test_whole_space_fold () =
  let m, _rc, tree = setup () in
  let c = Machine.core m 0 in
  let max = Radix.max_vpn tree in
  mmap tree c ~lo:0 ~hi:max "all";
  Alcotest.(check int) "single node" 1 (Radix.node_count tree);
  Alcotest.(check (option string)) "mid" (Some "all") (Radix.lookup tree c (max / 2));
  Radix.check_invariants tree

let test_set_page_expands () =
  let m, _rc, tree = setup () in
  let c = Machine.core m 0 in
  mmap tree c ~lo:0 ~hi:256 "shared";
  let lk = Radix.lock_range tree c ~lo:7 ~hi:8 in
  Alcotest.(check string) "get through fold" "shared"
    (Radix.get_page tree c lk 7 ~absent:"");
  Radix.set_page tree c lk 7 "private";
  Radix.unlock_range tree c lk;
  Alcotest.(check (option string)) "private page" (Some "private")
    (Radix.lookup tree c 7);
  Alcotest.(check (option string)) "neighbours keep fold" (Some "shared")
    (Radix.lookup tree c 8);
  Alcotest.(check bool) "expansion allocated nodes" true
    (Radix.node_count tree > 1);
  Radix.check_invariants tree

let test_partial_munmap_of_fold () =
  let m, _rc, tree = setup () in
  let c = Machine.core m 0 in
  mmap tree c ~lo:0 ~hi:256 "x";
  let removed = munmap tree c ~lo:100 ~hi:156 in
  Alcotest.(check int) "56 pages removed" 56
    (List.fold_left (fun acc (_, n, _) -> acc + n) 0 removed);
  Alcotest.(check (option string)) "left survives" (Some "x") (Radix.lookup tree c 99);
  Alcotest.(check (option string)) "hole" None (Radix.lookup tree c 128);
  Alcotest.(check (option string)) "right survives" (Some "x") (Radix.lookup tree c 156);
  Radix.check_invariants tree

let test_clear_returns_folded_runs () =
  let m, _rc, tree = setup () in
  let c = Machine.core m 0 in
  mmap tree c ~lo:0 ~hi:256 "x";
  let removed = munmap tree c ~lo:0 ~hi:256 in
  (* A fully folded region comes back as a handful of large runs, not 256
     single-page entries. *)
  Alcotest.(check bool) "few runs" true (List.length removed <= 16);
  Radix.check_invariants tree

let test_lock_overlap_serializes () =
  let m, _rc, tree = setup () in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  (* Expand the range to leaves first so locks are per-page. *)
  mmap tree a ~lo:0 ~hi:16 "v";
  let lk = Radix.lock_range tree a ~lo:4 ~hi:8 in
  Core.tick a 100_000;
  Radix.unlock_range tree a lk;
  let lk_b = Radix.lock_range tree b ~lo:7 ~hi:12 in
  Alcotest.(check bool) "overlapping locker waited" true (Core.now b >= 100_000);
  Radix.unlock_range tree b lk_b

let test_disjoint_ranges_no_wait () =
  let m, _rc, tree = setup ~bits:4 ~levels:3 () in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  (* Two far-apart leaf regions, pre-expanded by per-page writes. *)
  mmap tree a ~lo:0 ~hi:16 "a";
  mmap tree b ~lo:2048 ~hi:2064 "b";
  let lk_a = Radix.lock_range tree a ~lo:0 ~hi:16 in
  Core.tick a 1_000_000;
  Radix.unlock_range tree a lk_a;
  let before = Core.now b in
  let lk_b = Radix.lock_range tree b ~lo:2048 ~hi:2064 in
  Radix.unlock_range tree b lk_b;
  Alcotest.(check bool) "no cross-range wait" true
    (Core.now b - before < 100_000)

let test_fill_on_mapped_rejected () =
  let m, _rc, tree = setup () in
  let c = Machine.core m 0 in
  mmap tree c ~lo:0 ~hi:8 "x";
  let lk = Radix.lock_range tree c ~lo:0 ~hi:8 in
  Alcotest.check_raises "fill over mapped"
    (Invalid_argument "Radix.fill_range: page mapped") (fun () ->
      Radix.fill_range tree c lk "y");
  Radix.unlock_range tree c lk

let test_bad_ranges_rejected () =
  let m, _rc, tree = setup () in
  let c = Machine.core m 0 in
  Alcotest.check_raises "empty range"
    (Invalid_argument "Radix.lock_range: bad range") (fun () ->
      ignore (Radix.lock_range tree c ~lo:5 ~hi:5));
  Alcotest.check_raises "beyond space"
    (Invalid_argument "Radix.lock_range: bad range") (fun () ->
      ignore (Radix.lock_range tree c ~lo:0 ~hi:(Radix.max_vpn tree + 1)))

let test_out_of_token_access_rejected () =
  let m, _rc, tree = setup () in
  let c = Machine.core m 0 in
  let lk = Radix.lock_range tree c ~lo:0 ~hi:8 in
  Alcotest.check_raises "get outside token"
    (Invalid_argument "Radix.get_page: outside the locked range") (fun () ->
      ignore (Radix.get_page tree c lk 9 ~absent:""));
  Radix.unlock_range tree c lk

(* ------------------------------------------------------------------ *)
(* Collapse (Refcache-driven node reclamation)                         *)

let test_collapse_reclaims_nodes () =
  let m, _rc, tree = setup ~collapse:true () in
  let c = Machine.core m 0 in
  (* Per-page writes force full expansion. *)
  mmap tree c ~lo:0 ~hi:16 "x";
  let lk = Radix.lock_range tree c ~lo:0 ~hi:16 in
  for p = 0 to 15 do
    Radix.set_page tree c lk p "y"
  done;
  Radix.unlock_range tree c lk;
  let expanded = Radix.node_count tree in
  Alcotest.(check bool) "expanded" true (expanded > 1);
  ignore (munmap tree c ~lo:0 ~hi:16);
  drain_epochs m 6;
  Alcotest.(check int) "collapsed back to root" 1 (Radix.node_count tree);
  Alcotest.(check (option string)) "still unmapped" None (Radix.lookup tree c 3);
  Radix.check_invariants tree

let test_no_collapse_by_default () =
  let m, _rc, tree = setup ~collapse:false () in
  let c = Machine.core m 0 in
  mmap tree c ~lo:0 ~hi:16 "x";
  let lk = Radix.lock_range tree c ~lo:3 ~hi:4 in
  Radix.set_page tree c lk 3 "y";
  Radix.unlock_range tree c lk;
  let expanded = Radix.node_count tree in
  ignore (munmap tree c ~lo:0 ~hi:16);
  drain_epochs m 6;
  Alcotest.(check int) "nodes retained" expanded (Radix.node_count tree);
  Radix.check_invariants tree

let test_reuse_after_empty_before_collapse () =
  let m, _rc, tree = setup ~collapse:true () in
  let c = Machine.core m 0 in
  mmap tree c ~lo:0 ~hi:4 "x";
  let lk = Radix.lock_range tree c ~lo:0 ~hi:4 in
  for p = 0 to 3 do
    Radix.set_page tree c lk p "y"
  done;
  Radix.unlock_range tree c lk;
  ignore (munmap tree c ~lo:0 ~hi:4);
  (* Node is empty and queued for collapse; reuse it immediately. *)
  mmap tree c ~lo:0 ~hi:4 "z";
  drain_epochs m 8;
  Alcotest.(check (option string)) "revived mapping survives" (Some "z")
    (Radix.lookup tree c 2);
  Radix.check_invariants tree

(* ------------------------------------------------------------------ *)
(* Model-based property test                                           *)

type mop =
  | Mmap of int * int  (* lo, hi *)
  | Munmap of int * int
  | Setp of int
  | Look of int

let mop_print = function
  | Mmap (a, b) -> Printf.sprintf "mmap[%d,%d)" a b
  | Munmap (a, b) -> Printf.sprintf "munmap[%d,%d)" a b
  | Setp p -> Printf.sprintf "set(%d)" p
  | Look p -> Printf.sprintf "look(%d)" p

let mop_gen space =
  QCheck.Gen.(
    let range =
      map2
        (fun lo len -> (lo, min space (lo + 1 + len)))
        (int_bound (space - 2))
        (int_bound (space / 4))
    in
    frequency
      [
        (4, map (fun (a, b) -> Mmap (a, b)) range);
        (3, map (fun (a, b) -> Munmap (a, b)) range);
        (2, map (fun p -> Setp p) (int_bound (space - 1)));
        (3, map (fun p -> Look p) (int_bound (space - 1)));
      ])

let radix_model_test ~collapse =
  let space = 4096 in
  (* bits=4, levels=3 -> 4096 pages *)
  QCheck.Test.make
    ~name:
      (Printf.sprintf "radix matches oracle (collapse=%b)" collapse)
    ~count:60
    (QCheck.make
       ~print:(fun l -> String.concat ";" (List.map mop_print l))
       QCheck.Gen.(list_size (int_range 1 80) (mop_gen space)))
    (fun ops ->
      let m, _rc, tree = setup ~collapse () in
      let c = Machine.core m 0 in
      let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let next_id = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Mmap (lo, hi) ->
              incr next_id;
              mmap tree c ~lo ~hi !next_id;
              for p = lo to hi - 1 do
                Hashtbl.replace model p !next_id
              done
          | Munmap (lo, hi) ->
              ignore (munmap tree c ~lo ~hi);
              for p = lo to hi - 1 do
                Hashtbl.remove model p
              done
          | Setp p ->
              incr next_id;
              let lk = Radix.lock_range tree c ~lo:p ~hi:(p + 1) in
              if Radix.get_page tree c lk p ~absent:(-1) <> -1 then begin
                Radix.set_page tree c lk p !next_id;
                Hashtbl.replace model p !next_id
              end;
              Radix.unlock_range tree c lk
          | Look p ->
              if Radix.lookup tree c p <> Hashtbl.find_opt model p then
                ok := false)
        ops;
      Radix.check_invariants tree;
      (* Settle Refcache and re-verify the whole space. *)
      drain_epochs m 6;
      Radix.check_invariants tree;
      for p = 0 to space - 1 do
        if Radix.peek tree p <> Hashtbl.find_opt model p then ok := false
      done;
      !ok)

let test_fold_mapped_enumerates () =
  let m, _rc, tree = setup () in
  let c = Machine.core m 0 in
  mmap tree c ~lo:3 ~hi:6 "a";
  mmap tree c ~lo:10 ~hi:12 "b";
  let pages =
    Radix.fold_mapped tree ~init:[] ~f:(fun acc p v -> (p, v) :: acc)
    |> List.rev
  in
  Alcotest.(check (list (pair int string)))
    "enumeration"
    [ (3, "a"); (4, "a"); (5, "a"); (10, "b"); (11, "b") ]
    pages

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "radix"
    [
      ( "basics",
        [
          tc "fill lookup clear" `Quick test_fill_lookup_clear;
          tc "folding" `Quick test_folding_keeps_tree_small;
          tc "whole space fold" `Quick test_whole_space_fold;
          tc "set_page expands" `Quick test_set_page_expands;
          tc "partial munmap of fold" `Quick test_partial_munmap_of_fold;
          tc "clear returns runs" `Quick test_clear_returns_folded_runs;
          tc "fold_mapped" `Quick test_fold_mapped_enumerates;
        ] );
      ( "locking",
        [
          tc "overlap serializes" `Quick test_lock_overlap_serializes;
          tc "disjoint no wait" `Quick test_disjoint_ranges_no_wait;
          tc "fill on mapped rejected" `Quick test_fill_on_mapped_rejected;
          tc "bad ranges" `Quick test_bad_ranges_rejected;
          tc "token bounds" `Quick test_out_of_token_access_rejected;
        ] );
      ( "collapse",
        [
          tc "reclaims nodes" `Quick test_collapse_reclaims_nodes;
          tc "off by default" `Quick test_no_collapse_by_default;
          tc "revive before collapse" `Quick test_reuse_after_empty_before_collapse;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest (radix_model_test ~collapse:false);
          QCheck_alcotest.to_alcotest (radix_model_test ~collapse:true);
        ] );
    ]

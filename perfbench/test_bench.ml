(* The benchmark's own determinism tests, on short churn windows. Each
   run is a child process forked from this one, so every run starts from
   the same heap, as every benchmark run starts from a fresh process: one
   seed gives the same simulation digest and the same allocated words
   twice, and another seed changes the digest. *)

open Perfbench

let window = 1_000_000

let churn seed =
  let o = Churn.run ~seed ~traced:false ~window in
  if not (List.for_all snd o.Outcome.checks) then failwith "churn: an output check failed";
  Printf.sprintf "%s %.0f" (Report.digest o) (Report.alloc_words o.gc)

(* [f ()] computed in a forked child; its result comes back on a pipe. *)
let in_child f =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let code = match f () with s -> output_string oc s; 0 | exception e -> prerr_endline (Printexc.to_string e); 1 in
      close_out oc;
      Unix._exit code
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let s = In_channel.input_all ic in
      close_in ic;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> s
      | _ -> failwith "test_bench: the benchmark run failed")

let () =
  let run seed =
    match String.split_on_char ' ' (in_child (fun () -> churn seed)) with
    | [ digest; words ] -> (digest, words)
    | _ -> failwith "test_bench: malformed result"
  in
  let d1, a1 = run 11 in
  let d2, a2 = run 11 in
  let d3, _ = run 12 in
  let expect what ok =
    Printf.printf "%-45s %s\n" what (if ok then "ok" else "FAILED");
    if not ok then exit 1
  in
  expect "same seed: same sim_digest" (d1 = d2);
  expect "same seed: same allocated words" (a1 = a2);
  expect "different seed: different sim_digest" (d1 <> d3)

(* Correctness gate: every operation's outcome is reduced to a record
   and checked here, independently of the flags the program computes
   about itself. A violation stops the benchmark with a non-zero exit
   and no result line. Liveness misses are not violations; the caller
   counts them against the operations attempted. *)

type record =
  | Consensus of {
      proposals : int array;  (** every process's proposal *)
      correct : int list;  (** processes the safety properties bind *)
      decisions : (int * int) list;  (** (process, decided value) *)
    }
  | Log of { sequences : string list array }
      (** per node, the delivered slots in order, each rendered as
          ["<slot>:skip"] or ["<slot>:<hex digest of the batch>"] *)

let violations = function
  | Consensus { proposals; correct; decisions } ->
      let values = List.sort_uniq Int.compare (List.map snd decisions) in
      let agreement =
        if List.length values > 1 then
          [ Printf.sprintf "agreement: correct processes decided %s"
              (String.concat " and " (List.map string_of_int values)) ]
        else []
      in
      let proposed =
        List.sort_uniq Int.compare (List.map (fun i -> proposals.(i)) correct)
      in
      let validity =
        List.filter_map
          (fun (i, v) ->
            if not (List.mem i correct) then
              Some (Printf.sprintf "validity: process %d is not correct but decided" i)
            else if (v = 0 || v = 1) && (List.length proposed <> 1 || proposed = [ v ])
            then None
            else Some (Printf.sprintf "validity: process %d decided %d, proposed %s" i v
                         (String.concat "," (List.map string_of_int proposed))))
          decisions
      in
      agreement @ validity
  | Log { sequences } ->
      let n = Array.length sequences in
      let diverged = ref [] in
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          let rec walk k xs ys =
            match (xs, ys) with
            | x :: xs', y :: ys' ->
                if String.equal x y then walk (k + 1) xs' ys'
                else
                  diverged :=
                    Printf.sprintf "log: nodes %d and %d differ at delivery %d (%s vs %s)"
                      a b k x y
                    :: !diverged
            | _ -> ()
          in
          walk 0 sequences.(a) sequences.(b)
        done
      done;
      List.rev !diverged

(* --- records as JSON, so a record can be planted from outside -------------- *)

let ints l = Obs.Json.List (List.map (fun i -> Obs.Json.Int i) l)

let to_json = function
  | Consensus { proposals; correct; decisions } ->
      Obs.Json.Obj
        [
          ("kind", Obs.Json.String "consensus");
          ("proposals", ints (Array.to_list proposals));
          ("correct", ints correct);
          ("decisions", Obs.Json.List (List.map (fun (i, v) -> ints [ i; v ]) decisions));
        ]
  | Log { sequences } ->
      Obs.Json.Obj
        [
          ("kind", Obs.Json.String "log");
          ( "sequences",
            Obs.Json.List
              (Array.to_list
                 (Array.map
                    (fun s -> Obs.Json.List (List.map (fun x -> Obs.Json.String x) s))
                    sequences)) );
        ]

let of_json json =
  let field name conv =
    match Option.bind (Obs.Json.member name json) conv with
    | Some v -> v
    | None -> failwith ("record: missing or malformed field " ^ name)
  in
  let list_of conv j =
    Option.bind (Obs.Json.to_list j) (fun items ->
        let converted = List.filter_map conv items in
        if List.length converted = List.length items then Some converted else None)
  in
  match field "kind" Obs.Json.to_str with
  | "consensus" ->
      let pair j =
        match list_of Obs.Json.to_int j with Some [ i; v ] -> Some (i, v) | _ -> None
      in
      let proposals = Array.of_list (field "proposals" (list_of Obs.Json.to_int)) in
      let correct = field "correct" (list_of Obs.Json.to_int) in
      if List.exists (fun i -> i < 0 || i >= Array.length proposals) correct then
        failwith "record: correct process out of range";
      Consensus { proposals; correct; decisions = field "decisions" (list_of pair) }
  | "log" ->
      Log
        {
          sequences =
            Array.of_list (field "sequences" (list_of (list_of Obs.Json.to_str)));
        }
  | kind -> failwith ("record: unknown kind " ^ kind)

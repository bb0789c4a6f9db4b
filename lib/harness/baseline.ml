type rule = Exact | Max_growth
type row = { name : string; value : float; rule : rule }
type grid = Regression_gate | Scaling
type doc = { grid : grid; seed : int64; rows : row list }

(* v5: one row list per document; v4 and earlier had a layout per grid *)
let schema_version = 5
let grids = [ (Regression_gate, "regression-gate"); (Scaling, "scaling") ]
let rules = [ (Exact, "exact"); (Max_growth, "max_growth") ]
let grid_name g = List.assoc g grids
let rule_name r = List.assoc r rules

let lookup what table s =
  match List.find_opt (fun (_, name) -> name = s) table with
  | Some (v, _) -> Ok v
  | None -> Error (Printf.sprintf "unknown %s %S" what s)

let row_to_json r =
  Obs.Json.Obj
    [
      ("name", Obs.Json.String r.name);
      ("value", Obs.Json.Float r.value);
      ("rule", Obs.Json.String (rule_name r.rule));
    ]

let to_string d =
  let key k v = Obs.Json.to_string (Obs.Json.String k) ^ ":" ^ Obs.Json.to_string v in
  String.concat ""
    [
      "{";
      String.concat ","
        [
          key "schema_version" (Obs.Json.Int schema_version);
          key "grid" (Obs.Json.String (grid_name d.grid));
          key "seed" (Obs.Json.String (Int64.to_string d.seed));
        ];
      ",\"rows\":[\n";
      String.concat ",\n" (List.map (fun r -> Obs.Json.to_string (row_to_json r)) d.rows);
      "\n]}\n";
    ]

let of_string s =
  let open Obs.Json in
  let ( let* ) = Result.bind in
  let get conv k j =
    Option.to_result ~none:(Printf.sprintf "missing or mistyped %S" k)
      (Option.bind (member k j) conv)
  in
  let* json = parse s in
  let* version = get to_int "schema_version" json in
  if version <> schema_version then
    Error
      (Printf.sprintf "schema version %d; this build reads version %d" version
         schema_version)
  else
    let* grid = Result.bind (get to_str "grid" json) (lookup "grid" grids) in
    let* seed =
      Result.bind (get to_str "seed" json) (fun s ->
          Option.to_result ~none:"seed is not an int64" (Int64.of_string_opt s))
    in
    let* items = get to_list "rows" json in
    let* rows =
      List.fold_left
        (fun acc j ->
          let* rows = acc in
          let* name = get to_str "name" j in
          let* value = get to_float "value" j in
          let* rule = Result.bind (get to_str "rule" j) (lookup "rule" rules) in
          if List.exists (fun r -> r.name = name) rows then
            Error (Printf.sprintf "duplicate row %S" name)
          else Ok ({ name; value; rule } :: rows))
        (Ok []) items
    in
    Ok { grid; seed; rows = List.rev rows }

let save file d =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string d))

let load file =
  match In_channel.with_open_bin file In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e -> Error e

type verdict = { name : string; base : row option; now : row option; ok : bool }

let growth b v = if b = 0.0 then if v <= 0.0 then 0.0 else infinity else (v -. b) /. b

let passes ~threshold (b : row) (r : row) =
  b.rule = r.rule
  &&
  match b.rule with
  | Exact -> Float.equal b.value r.value
  | Max_growth -> growth b.value r.value <= threshold

let diff ~threshold ~base rows =
  let find name l = List.find_opt (fun (r : row) -> r.name = name) l in
  List.map
    (fun (b : row) ->
      let now = find b.name rows in
      {
        name = b.name;
        base = Some b;
        now;
        ok = (match now with Some r -> passes ~threshold b r | None -> false);
      })
    base
  @ List.filter_map
      (fun (r : row) ->
        match find r.name base with
        | Some _ -> None
        | None -> Some { name = r.name; base = None; now = Some r; ok = false })
      rows

let render_verdict v =
  let verdict = if v.ok then "ok" else "FAIL" in
  match (v.base, v.now) with
  | Some b, Some r when b.rule <> r.rule ->
      Printf.sprintf "  %-40s rule %s in the baseline, %s in the re-run  FAIL" v.name
        (rule_name b.rule) (rule_name r.rule)
  | Some b, Some r -> (
      match b.rule with
      | Exact ->
          Printf.sprintf "  %-40s %.17g -> %.17g  exact  %s" v.name b.value r.value verdict
      | Max_growth ->
          Printf.sprintf "  %-40s %12.6g -> %12.6g  %+8.1f%%  %s" v.name b.value r.value
            (100.0 *. growth b.value r.value)
            verdict)
  | Some b, None ->
      Printf.sprintf "  %-40s %.17g -> (missing from the re-run)  FAIL" v.name b.value
  | None, _ -> Printf.sprintf "  %-40s (not in the baseline)  FAIL" v.name

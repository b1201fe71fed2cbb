(** The differential/metamorphic oracle: one scenario, every engine, one
    verdict.

    A scenario is pushed through the whole engine matrix — recursive
    per-tuple vs fixpoint ILFD extension, and the per-tuple
    evaluator vs the scan on every row ([fixpoint-agreement]), the naive
    reference join, the Figure 3 partition ({!Entity_id.Monotonic} and
    {!Entity_id.Negative}) against the three-valued reference
    ({!Reference.partition_naive}, [figure3-agreement]), the streamed
    join, the incremental replay, k-ary clustering — and through the
    metamorphic transformations (ILFD prefixes, tuple removal,
    tuple-order permutation, attribute relabeling). The first check that
    fails yields a {!discrepancy}; checks run in a fixed order so the
    failing check's name is a stable identity the shrinker can preserve.

    Constraint-level expectations (uniqueness, MT/NMT consistency,
    soundness against the generator's ground truth, and the Figure 3
    partition's consistency and growth) only apply when the scenario is
    {!Scenario.t.strict}; the differential checks apply always —
    corrupted inputs have no "right" answer, but every engine must still
    give the {e same} answer. *)

(** A seeded mutation: a deliberately wrong engine variant the harness
    must catch (the mutation sanity check). [No_fault] runs the real
    code. *)
type fault =
  | No_fault
  | Broken_blocking_key
      (** the engine's matching join keys on only the {e first}
          extended-key attribute — homonyms and underived tuples
          over-match *)
  | Drop_last_pair
      (** the engine's matching table silently loses its last entry *)
  | Lost_insert
      (** the incremental replay drops every 7th insertion *)
  | Kdb_lost_edge
      (** a kdb scenario's last pairwise verdict edge is dropped before
          the transitive closure ({!Families.fault}[.Lost_edge]) *)
  | Md_phantom_match
      (** an md scenario's one-shot match set gains a pair outside the
          MD fixpoint ({!Families.fault}[.Phantom_match]) *)
  | Merge_rogue_pair
      (** a merge-policy scenario's MT gains a pair from two distinct
          merge-then-rematch groups ({!Families.fault}[.Rogue_pair]) *)
  | Stratum_order
      (** the per-tuple evaluator ({!Ilfd.Fixpoint.extend_tuple}) lists
          its derivations in stratum order instead of the reference's
          demand order *)
  | Nmt_lost_pair
      (** the Figure 3 snapshot's not-matched set loses its last entry *)
  | Algebra_lost_pair
      (** the matching table of Section 4.2's relational expressions
          ({!Entity_id.Algebraic}) loses its last entry *)

val all_faults : fault list
val fault_to_string : fault -> string
val fault_of_string : string -> fault option

type discrepancy = {
  check : string;  (** stable check name, e.g. ["verdict-tables"] *)
  family : string;
      (** the failing scenario's {!Scenario.kind_to_string} name; the
          shrinker preserves the (family, check) pair *)
  detail : string;  (** human-readable evidence *)
}

val pp_discrepancy : Format.formatter -> discrepancy -> unit

(** [run ?fault ?telemetry scenario] — [Ok ()] when every check passes.
    Engine exceptions other than the ones a check expects are converted
    into an ["exception"] discrepancy rather than escaping, so the
    shrinker can minimise crashes too. [telemetry] charges the
    [checker.oracle] span. *)
val run :
  ?fault:fault ->
  ?telemetry:Telemetry.t ->
  Scenario.t ->
  (unit, discrepancy) result

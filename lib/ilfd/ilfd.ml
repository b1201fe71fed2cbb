(* Facade: [Ilfd.t] is the ILFD type itself (from {!Def}), with the
   theory, derivation engines, tables and propositions as submodules.
   Relation extension in production is {!Fixpoint.extend_relation};
   {!Apply.extend_relation} is its serial per-tuple reference. *)

include Def

module Encode = Encode
module Theory = Theory
module Fixpoint = Fixpoint
module Apply = Apply
module Table = Table
module Props = Props
module Mine = Mine

(* Facade: the correctness harness — deterministic scenario generation
   ({!Scenario}), the workload families and their reference oracles
   ({!Families}), the ILFD and three-valued decision references
   ({!Reference}) with their verdict type ({!Match_result}), the
   differential/metamorphic oracle ({!Oracle}),
   greedy counterexample minimisation ({!Shrink}) and the check/soak
   driver ({!Harness}). *)

module Scenario = Scenario
module Families = Families
module Match_result = Match_result
module Reference = Reference
module Oracle = Oracle
module Shrink = Shrink
module Harness = Harness

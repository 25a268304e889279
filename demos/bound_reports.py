"""Print interval bound reports for a few named graphs.

Every row gives the best lower and upper bound the rule engine can
certify for one cover parameter, plus the rules that produced them.
An upper bound of inf means that no finite upper bound is known, not
that the parameter is undefined: `affinecover bounds --family cycle:9`
prints pi12 `2..inf`, although a 9-cycle is planar.
"""
import math

from affinecover.bounds import bound_report
from affinecover.graphs import FamilySpec, build_family, complete_graph


def show(title, g, **kwargs):
    report = bound_report(g, **kwargs)
    print(f"\n{title}  (n={g.n}, m={g.m})")
    print(f"  {'parameter':>9} {'lower':>6} {'upper':>6}  rules")
    for param in ("pi12", "pi13", "pibar13", "pi23", "rho12", "rho13", "rho23"):
        b = report[param]
        upper = "inf" if b.upper == math.inf else str(b.upper)
        rules = sorted({e.rule for e in b.provenance if e.fold})
        print(f"  {param:>9} {str(b.lower):>6} {upper:>6}  {', '.join(rules)}")


show("complete graph K6", complete_graph(6))
show("complete bipartite K_{4,4}", build_family(FamilySpec("complete_bipartite", (4, 4))))
show(
    "stack of 27 squares (prism tower)",
    build_family(FamilySpec("c4_prism_stack", (27,))),
    family="c4_prism_stack",
)

#!/usr/bin/env python3
"""Print the exact certificates behind the parameter-dependent triangulations.

For each of the C(9,3), C(9,4), C(9,5) examples: a Farkas certificate of
non-regularity at t = 1..9 and a witness height vector at the alternate
parameters.  Each verdict comes from `coherence.is_regular`; it is printed
beside the regularity system over heights in Q^n, whose rows the
certificate combines and the witness satisfies, so both can be re-verified
by hand.
"""

from cyclicfiber import catalog, lp
from cyclicfiber.coherence import is_regular, regularity_system
from cyclicfiber.cyclic import format_params, standard_params
from cyclicfiber.subdiv import parse_triangulation_line


def main():
    for (n, d), info in sorted(catalog.PARAM_DEPENDENT.items()):
        tri = parse_triangulation_line(info["cells"], n)
        print(f"== C({n},{d}) triangulation: {info['cells']}")
        for label, pv in (
            ("standard", standard_params(n, d)),
            ("alternate", catalog.preset_params(f"lemma47-c9{d}", n, d)),
        ):
            res = is_regular(tri, pv)
            system = regularity_system(tri, pv)
            if not lp.verify(system, res):
                raise SystemExit(f"C({n},{d}) at {label} parameters: result fails the Q^n system")
            verdict = "REGULAR" if isinstance(res, lp.Witness) else "NONREGULAR"
            print(f"-- {label} parameters t = {format_params(pv)}: {verdict}")
            print(lp.format_result(system, res))
        print()


if __name__ == "__main__":
    main()

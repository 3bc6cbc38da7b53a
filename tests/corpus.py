"""Hand-labelled classifier corpus shared by the unit and acceptance tests.

Labels were assigned by hand from the leading-form factorizations:
multiplicity profile of F6 decides the route, with the max-multiplicity 3
and 5 profiles kept as explicit unresolved-case routes.
"""

CORPUS = [
    # (expression, route)
    ("x^6 + y^6", "MP0"),
    ("x^6 + x^4*y^2 + y^6", "MP0"),
    ("x^2*y^4 + x^6 + 1", "MP1-linear"),
    ("(x^2 - 2*y^2)^2*(x^2 + y^2) + x^5", "MP1-quadratic"),
    ("(x^2 - 3*y^2)^2*(x^2 + y^2) + x^5 + y^3", "MP1-quadratic"),
    ("(x^3 + x*y^2 + y^3)^2 + x^5", "MP1-cubic"),
    ("x^4*(x^2 + y^2) + x^3*y^2", "MP2"),
    ("(y^2 - x^3 - x)^2 - y + 10", "MP3"),
    ("x^6 + x^2*y^3", "MP3"),
    ("x^5*y + x^3*y^3", "paper-gap"),   # multiplicity-3 linear factor
    ("x^5*y + x*y + 1", "paper-gap"),   # multiplicity-5 linear factor
    ("x^6 - y^6", "not-positive-leading"),
    ("-x^6 - y^6 + x*y", "not-positive-leading"),
    ("x^4 + y^4", "not-a-sextic"),
]

# Sextics whose route admits no witness engine, although the route names
# one for other inputs; `recommended` must say density for each.
ENGINELESS = [
    ("(x^2+y^2)^2*(x^2+2*y^2) + x^5", "MP1-quadratic"),  # F6 positive-definite
    ("x^5*y + x^3*y^3 + x^5 + y^5", "paper-gap"),  # F6 indefinite, gcd(F6, F5) = 1
    ("(x^3 + x*y^2 + y^3)^2 + (x^3 + x*y^2 + y^3)*x^2 + x^4", "MP1-cubic"),  # f | F5 only
    ("(x*(x^2+y^2))^2 + x^5", "MP1-cubic"),  # reducible f, gcd(F6, F5) = x^2
    ("x^6 + x^3*y^2", "MP3"),  # no EC normal form and no anisotropic theta
]

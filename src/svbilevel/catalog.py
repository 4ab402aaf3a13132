"""Built-in example problems 1 through 6.

Each entry is problem-file text (see module problem for the format).
"""

EXAMPLES = {
    1: """\
# Example 1: quadratic h, quadratic + max-of-affine lower pair
vars x 2
upper x1 + x2^2
lower x1^2 + x2^2 + 0.4*x1 - 4*x2
lower max(-0.5*x1 - 0.25*x2 - 0.2, -2*x1 + 4.6*x2 - 5.8)
constraint_x x1 - 2*x2 - 1
constraint_x -x1 + x2 - 1
constraint_x 2*x1 + x2 - 4
constraint_x 2*x1 + 5*x2 - 10
constraint_x -x1 - x2 + 1.5
constraint_x 0.5*(x1 - 1)^2 + 1.4*(x2 - 0.5)^2 - 1.1
bound x1 0 inf
bound x2 0 inf
""",
    2: """\
# Example 2: fractional upper objective, fractional lower pair
vars x 2
upper (2*x1 + 3*x2) / (4*x1 + 5*x2 + 10)
lower (3*x1 + x2)^2 / (3*x1 + x2 - 1)^3
lower (x1^2 - 2*x1 + x2^2 - 8*x2) / (x2 + 1)
constraint_x 2*x1 + x2 - 6
constraint_x 3*x1 + x2 - 8
constraint_x x1 - x2 - 1
bound x1 1 inf
bound x2 1 inf
""",
    3: """\
# Example 3: four fractional lower objectives over a polytope
vars x 3
upper (3*x1 + 2*x2 + 10*x3 + 11) / (x1 + x2 + x3 + 10)
lower (2*x1 + 5*x2 + 3*x3 + 10) / (3*x2 + 3*x3 + 10)
lower (2*x1 + 4*x2 + 10) / (4*x1 + 4*x2 + 5*x3 + 10)
lower (x1 + 2*x2 + 5*x3 + 10) / (x1 + 5*x2 + 5*x3 + 10)
lower (x1 + 2*x2 + 4*x3 + 10) / (5*x2 + 4*x3 + 10)
constraint_x 2*x1 + x2 + 5*x3 - 10
constraint_x x1 + 6*x2 + 3*x3 - 10
constraint_x 5*x1 + 9*x2 + 2*x3 - 10
constraint_x 9*x1 + 7*x2 + 3*x3 - 10
bound x1 0 inf
bound x2 0 inf
bound x3 0 inf
""",
    4: """\
# Example 4: linear h, coordinate lower objectives, disc coupling constraint
vars x 2
upper x1 - 0.9
lower x1
lower x2
constraint_x -x1 - x2 - 1
constraint_xy x1^2 + x2^2 - 0.81
bound x1 -1 1
bound x2 -1 1
""",
    5: """\
# Example 5: 14-dimensional box, two separable quadratic lower objectives
vars x 14
upper (x1 - 1)^2 + x2^2 + x3^2 + x4^2 + x5^2 + x6^2 + x7^2 + x8^2 + x9^2 \
+ x10^2 + x11^2 + x12^2 + x13^2 + x14^2 + 0.25
lower x1^2 + x2^2 + x3^2 + x4^2 + x5^2 + x6^2 + x7^2 + x8^2 + x9^2 + x10^2 \
+ x11^2 + x12^2 + x13^2 + x14^2
lower (x1 - 0.5)^2 + x2^2 + x3^2 + x4^2 + x5^2 + x6^2 + x7^2 + x8^2 + x9^2 \
+ x10^2 + x11^2 + x12^2 + x13^2 + x14^2
bound x1 -1 2
bound x2 -1 2
bound x3 -1 2
bound x4 -1 2
bound x5 -1 2
bound x6 -1 2
bound x7 -1 2
bound x8 -1 2
bound x9 -1 2
bound x10 -1 2
bound x11 -1 2
bound x12 -1 2
bound x13 -1 2
bound x14 -1 2
""",
    6: """\
# Example 6: coupled upper variables y, fractional objectives
vars x 3
vars y 2
upper (x1^2 + 2*x2^2 + 10*y1^2 + y2^2) / (x1 + x3 + y1 + 20)
lower (2*x1 + 5*x2 + 3*x3 + 10) / (3*x2 + 3*x3 + 10)
lower (2*x1 + 4*x2 + 10) / (4*x1 + 4*x2 + 5*x3 + 10)
lower (x1 + 2*x2 + 5*x3 + 10) / (x1 + 5*x2 + 5*x3 + 10)
lower (x1 + 2*x2 + 4*x3 + 10) / (5*x2 + 4*x3 + 10)
constraint_x 2*x1 + x2 + 5*x3 - 10
constraint_x x1 + 6*x2 + 3*x3 - 10
constraint_x 5*x1 + 9*x2 + 2*x3 - 10
constraint_x 9*x1 + 7*x2 + 3*x3 - 10
constraint_xy -x2 - x3 - 2*y1 - y2 + 2
constraint_xy x2 + x3 - 5*y1 + 2*y2 - 1
bound x1 0 inf
bound x2 0 inf
bound x3 0 inf
""",
}


def example_text(number: int) -> str:
    if number not in EXAMPLES:
        raise KeyError(f"no example {number}; available: {sorted(EXAMPLES)}")
    return EXAMPLES[number]


def load_example(number: int):
    from .problem import load_problem

    return load_problem(example_text(number))

# Build file of the MAPP end-to-end benchmark program. It is injected
# into the repository's own CMake tree, so the libraries build with
# exactly the flags a normal build uses, without editing that tree:
#
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=RelWithDebInfo \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/perfbench/mapp_perfbench.cmake
#   cmake --build .bench_build --target mapp_perfbench
#
# CMake includes this file right after the top-level project() call;
# the library targets it links are defined later and resolve at
# generate time.
include_guard(GLOBAL)

add_executable(mapp_perfbench
    "${CMAKE_CURRENT_LIST_DIR}/mapp_perfbench.cc")
# Included before the top-level file sets its language standard and
# warnings, so the target states its own.
set_target_properties(mapp_perfbench PROPERTIES
    CXX_STANDARD 20 CXX_STANDARD_REQUIRED ON CXX_EXTENSIONS OFF)
target_compile_options(mapp_perfbench PRIVATE -Wall -Wextra)
target_include_directories(mapp_perfbench PRIVATE "${CMAKE_SOURCE_DIR}/src")
target_link_libraries(mapp_perfbench PRIVATE mapp_serve mapp_predictor
    mapp_ml mapp_cache mapp_vision mapp_obs mapp_common)
